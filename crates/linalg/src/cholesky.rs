//! Blocked right-looking Cholesky factorization (`A = L Lᵀ`, lower variant).
//!
//! The iteration structure matches the hybrid algorithm of the paper's Figure 1: a small
//! `b × b` panel factorization (PD, run on the CPU in the hybrid setting), a panel update
//! (TRSM) and a trailing-matrix update (SYRK) that run on the GPU. The per-step entry
//! points are public so the heterogeneous driver in `bsr-core` can interleave them with
//! checksum maintenance, fault injection and simulated timing.

use crate::blas3::{
    gemm_acc_cols, gemm_acc_cols_prepacked, repack_a_op, syrk_lower_into_block, trsm_into_block,
    trsm_right_lower_trans_cols, Diag, PackedA, Side, Trans, UpLo,
};
use crate::dag::{Checkpoint, DagExecution, DagTiming, FactorGraph, TileGraph, TileTasks};
use crate::elem::{potf2_lanes, Element};
use crate::matrix::{Block, Matrix};
use crate::task::{
    panel_attempt, restore_rows, snapshot_rows, StepTiming, TileCols, TileVerdict, TrailingHook,
};
use std::ops::Range;

/// Error returned when a matrix is not positive definite (or not square).
#[derive(Debug, Clone, PartialEq)]
pub enum CholeskyError {
    /// The input matrix is not square.
    NotSquare,
    /// A non-positive or non-finite pivot was encountered at the given global index.
    NotPositiveDefinite(usize),
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotSquare => write!(f, "matrix is not square"),
            CholeskyError::NotPositiveDefinite(i) => {
                write!(f, "matrix is not positive definite (pivot {i})")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Unblocked Cholesky factorization (lower) of the `nb × nb` diagonal block starting at
/// `(j0, j0)`. This is the panel decomposition (PD) kernel: per column, every previous
/// panel column is folded in (`A[j.., j] −= L[j, k] · L[j.., k]`), then the pivot is
/// square-rooted and the subcolumn scaled, in the runtime-dispatched column-slice
/// kernel the tiled panel shares.
pub fn potf2(a: &mut Matrix, j0: usize, nb: usize) -> Result<(), CholeskyError> {
    let rows = a.rows();
    let mut cols: Vec<&mut [f64]> = a
        .cols_range_mut(Block::new(0, j0, rows, nb))
        .map(|(_, c)| c)
        .collect();
    potf2_lanes(&mut cols, j0).map_err(|j| CholeskyError::NotPositiveDefinite(j0 + j))
}

/// Panel update (PU) of iteration `k`: `A21 ← A21 · L11⁻ᵀ` where `A21` is the block of
/// rows below the diagonal block.
pub fn panel_update(a: &mut Matrix, j0: usize, nb: usize) {
    let n = a.rows();
    if j0 + nb >= n {
        return;
    }
    let l11 = a.copy_block(Block::new(j0, j0, nb, nb)).lower_triangular();
    trsm_into_block(
        Side::Right,
        UpLo::Lower,
        Trans::Yes,
        Diag::NonUnit,
        1.0,
        &l11,
        a,
        Block::new(j0 + nb, j0, n - j0 - nb, nb),
    );
}

/// Trailing matrix update (TMU) of iteration `k`: `A22 ← A22 − A21 · A21ᵀ` (lower only).
pub fn trailing_update(a: &mut Matrix, j0: usize, nb: usize) {
    let n = a.rows();
    if j0 + nb >= n {
        return;
    }
    let a21 = a.copy_block(Block::new(j0 + nb, j0, n - j0 - nb, nb));
    syrk_lower_into_block(
        -1.0,
        &a21,
        1.0,
        a,
        Block::new(j0 + nb, j0 + nb, n - j0 - nb, n - j0 - nb),
    );
}

/// Full blocked Cholesky factorization with block size `block`. On success the lower
/// triangle of `a` contains `L`; the strictly upper triangle is left untouched.
pub fn cholesky_blocked(a: &mut Matrix, block: usize) -> Result<(), CholeskyError> {
    if !a.is_square() {
        return Err(CholeskyError::NotSquare);
    }
    let n = a.rows();
    assert!(block > 0, "block size must be positive");
    let mut j0 = 0;
    while j0 < n {
        let nb = block.min(n - j0);
        potf2(a, j0, nb)?;
        panel_update(a, j0, nb);
        trailing_update(a, j0, nb);
        j0 += nb;
    }
    Ok(())
}

/// Number of blocked iterations a Cholesky of order `n` with block size `b` performs.
pub fn num_iterations(n: usize, b: usize) -> usize {
    n.div_ceil(b)
}

/// Result of a full Cholesky factorization, wrapping the in-place storage the
/// drivers produce (lower triangle = `L`, strictly upper triangle = stale input).
///
/// The blocked/stepped/DAG drivers factor a [`Matrix`] in place; this wrapper gives
/// service clients the same owned-factors surface [`crate::lu::LuFactors`] has —
/// including [`CholeskyFactors::solve`] — without copying the storage.
#[derive(Debug, Clone)]
pub struct CholeskyFactors {
    storage: Matrix,
}

impl CholeskyFactors {
    /// Wrap factored in-place storage (as produced by [`cholesky_blocked`],
    /// [`cholesky_dag`] or the stepper). Panics if the matrix is not square.
    pub fn from_storage(storage: Matrix) -> Self {
        assert!(storage.is_square(), "Cholesky factors must be square");
        CholeskyFactors { storage }
    }

    /// Extract the lower-triangular factor `L` (zeroing the stale upper triangle).
    pub fn l(&self) -> Matrix {
        self.storage.lower_triangular()
    }

    /// The raw in-place storage: `L` in the lower triangle, stale input above it.
    pub fn storage(&self) -> &Matrix {
        &self.storage
    }

    /// Unwrap the raw in-place storage.
    pub fn into_storage(self) -> Matrix {
        self.storage
    }

    /// Solve `A X = B` against these factors (LAPACK `potrs`), delegating to
    /// [`crate::solve::cholesky_solve`] — which only references the lower triangle,
    /// so the stale upper triangle of the in-place storage is harmless. `B` may
    /// carry any number of right-hand sides and is left untouched.
    pub fn solve(&self, b: &Matrix) -> Matrix {
        crate::solve::cholesky_solve(&self.storage, b)
    }
}

// =======================================================================================
// The tile task graph (see `crate::dag`): one iteration at a time, or all at once.
// =======================================================================================

/// Factor the diagonal panel held in `tile`: `potf2` of the diagonal block at
/// `(row0, row0)` followed by the TRSM of the rows below it, both running directly in
/// the tile's column slices (no extract/write-back round trip) — a lookahead task
/// touches nothing but its own column group. Operation-for-operation identical to
/// [`potf2`] + [`panel_update`], so the bits match.
fn factor_panel_tile<E: Element>(
    tile: &mut TileCols<'_, E>,
    row0: usize,
) -> Result<(), CholeskyError> {
    let n = tile.rows();
    let jend = row0 + tile.width();
    // potf2 on the diagonal block, in the kernel [`potf2`] runs.
    potf2_lanes(&mut tile.cols, row0).map_err(|j| CholeskyError::NotPositiveDefinite(row0 + j))?;
    // Panel update (TRSM): A21 ← A21 · L11⁻ᵀ on the rows below the diagonal block.
    if jend < n {
        let l11 = crate::task::extract_cols(&tile.cols[..], row0, jend).lower_triangular();
        trsm_right_lower_trans_cols(&l11, jend, &mut tile.cols);
    }
    Ok(())
}

/// One Cholesky trailing tile task of iteration `k`: the tile's slice of the SYRK
/// trailing update, `A[cb0.., cb0..cb0+w] ← A − A21[cb0..,] · A21[cb0..cb0+w,]ᵀ`
/// (lower triangle only on the diagonal tile), then the trailing hook.
///
/// Each call is one **self-contained attempt**: if the hook opted into snapshots and
/// returns [`TileVerdict::Recompute`], the tile is rolled back to its pre-attempt
/// contents before the verdict is passed to the caller, so simply calling again
/// re-runs the identical update from clean inputs.
#[allow(clippy::too_many_arguments)] // mirrors the per-iteration operand set
fn chol_update_tile<E: Element>(
    tile: &mut TileCols<'_, E>,
    iter: usize,
    j0: usize,
    nb: usize,
    a21: &Matrix<E>,
    a21p: &PackedA<E>,
    hook: &dyn TrailingHook<E>,
) -> TileVerdict {
    let cb0 = tile.col0;
    let snap = hook.wants_snapshots().then(|| snapshot_rows(&tile.cols, cb0, tile.width()));
    // Both operands are sub-blocks of the shared A21 copy, addressed by op-space
    // origins instead of per-task copies: rows `off..` of A21 on the left, rows
    // `off..off+w` (as columns of A21ᵀ) on the right. When the row origin lands on a
    // packing-panel boundary (always true for `MR`-multiple block sizes) the shared
    // pre-packed A21 panels are consumed directly; otherwise the task packs its own
    // sub-block — both produce bit-identical results.
    let off = cb0 - (j0 + nb);
    let verdict = {
        let mut sub = tile.rows_from(cb0);
        if off.is_multiple_of(E::MR) {
            gemm_acc_cols_prepacked(-1.0, a21p, off, a21, Trans::Yes, off, &mut sub, true);
        } else {
            gemm_acc_cols(-1.0, a21, Trans::No, off, a21, Trans::Yes, off, &mut sub, true);
        }
        hook.after_tile_update(iter, cb0, cb0, &mut sub)
    };
    if verdict == TileVerdict::Recompute {
        if let Some(snap) = &snap {
            restore_rows(&mut tile.cols, cb0, snap);
            return TileVerdict::Recompute;
        }
    }
    TileVerdict::Accept
}

/// Cholesky's tile tasks: the lookahead panel (`potf2` + TRSM) and the SYRK slice of
/// the trailing update.
struct CholTasks;

/// What `Panel(p)` publishes: the `A21` copy and its packed form, shared read-only by
/// all of iteration `p`'s update tasks.
struct CholPanel<E: Element> {
    a21: Matrix<E>,
    a21p: PackedA<E>,
}

impl<E: Element> TileTasks<E> for CholTasks {
    type Factored = ();
    type Panel = CholPanel<E>;
    type Error = CholeskyError;

    fn panel(
        &self,
        tile: &mut TileCols<'_, E>,
        iter: usize,
        hook: &dyn TrailingHook<E>,
    ) -> Option<Result<(), CholeskyError>> {
        let row0 = tile.col0;
        panel_attempt(tile, iter, hook, |tile| factor_panel_tile(tile, row0))
    }

    fn publish(&self, tile: &TileCols<'_, E>, (): ()) -> CholPanel<E> {
        let (row0, nb, n) = (tile.col0, tile.width(), tile.rows());
        let a21 = tile.extract(row0 + nb, n);
        let mut a21p = PackedA::default();
        repack_a_op(&mut a21p, &a21, Trans::No, 0, 0, n - row0 - nb, nb);
        CholPanel { a21, a21p }
    }

    fn update(
        &self,
        tile: &mut TileCols<'_, E>,
        p: usize,
        j0: usize,
        nb: usize,
        panel: &CholPanel<E>,
        hook: &dyn TrailingHook<E>,
    ) -> TileVerdict {
        chol_update_tile(tile, p, j0, nb, &panel.a21, &panel.a21p, hook)
    }
}

/// Cholesky's tile task graph (see [`crate::dag`]), one iteration at a time: the
/// stepped driver, and the state [`cholesky_dag_with`] runs whole. Stepping through
/// every iteration in order produces a factor **bit-identical** to
/// [`cholesky_blocked`] and [`cholesky_dag_with`] with the same block size, at any
/// thread count; each step reports its measured [`StepTiming`]. Generic over the
/// [`Element`] type like the DAG driver.
pub struct CholeskyTiledStepper<E: Element = f64>(TileGraph<E, CholTasks>);

impl<E: Element> CholeskyTiledStepper<E> {
    /// Take ownership of the matrix and factor panel 0, the prologue every run pays
    /// before its first trailing update. On error the matrix is dropped (numeric-mode
    /// callers keep their own pristine input).
    pub fn new(a: Matrix<E>, block: usize) -> Result<Self, CholeskyError> {
        if !a.is_square() {
            return Err(CholeskyError::NotSquare);
        }
        let mut graph = chol_graph(a, block);
        graph.prologue()?;
        Ok(Self(graph))
    }

    /// Number of blocked iterations; [`Self::step`] must be called exactly once for
    /// each `k` in `0..iterations()`, in order.
    pub fn iterations(&self) -> usize {
        self.0.iterations()
    }

    /// Measured duration of the panel-0 prologue factored by [`Self::new`].
    pub fn prologue_panel_s(&self) -> f64 {
        self.0.prologue_panel_s()
    }

    /// Run iteration `k`'s graph on the pool (its trailing tile updates and
    /// lookahead panel `k + 1`) with `hook` fused into every trailing tile and panel
    /// task.
    pub fn step(
        &mut self,
        k: usize,
        hook: &dyn TrailingHook<E>,
    ) -> Result<StepTiming, CholeskyError> {
        self.0.step(k, hook)
    }

    /// Recover the factored matrix after the final step (lower triangle holds `L`).
    pub fn into_matrix(self) -> Matrix<E> {
        self.0.into_parts().0
    }
}

impl<E: Element> FactorGraph<E> for CholeskyTiledStepper<E> {
    type Error = CholeskyError;

    fn run(
        &mut self,
        iters: Range<usize>,
        hook: &dyn TrailingHook<E>,
        exec: DagExecution,
    ) -> Result<f64, CholeskyError> {
        self.0.run(iters, hook, exec)
    }

    fn timing(&self) -> &DagTiming {
        self.0.timing()
    }

    fn checkpoint(&self) -> Checkpoint<E> {
        self.0.checkpoint()
    }

    fn restore(&mut self, snap: &Checkpoint<E>) {
        self.0.restore(snap)
    }
}

/// The task graph of `a`, before its prologue.
fn chol_graph<E: Element>(a: Matrix<E>, block: usize) -> TileGraph<E, CholTasks> {
    let (n, label) = (a.rows(), format!("cholesky n={} b={block}", a.rows()));
    TileGraph::new(CholTasks, a, n, block, label)
}

/// Dependency-driven DAG Cholesky with depth-unbounded panel lookahead.
///
/// Same math, same bits as [`cholesky_blocked`] with the same block size, at any
/// thread count and under any task schedule; the per-iteration barrier is replaced by
/// per-tile dependency counters (see [`crate::dag`]), so a tile's iteration-`k + 1`
/// SYRK slice starts the moment panel `k + 1` and its own iteration-`k` slice are done
/// — regardless of other tiles' progress.
pub fn cholesky_dag(a: &mut Matrix, block: usize) -> Result<(), CholeskyError> {
    cholesky_dag_with(a, block, &(), DagExecution::Pool).map(|_| ())
}

/// [`cholesky_dag`] with a [`TrailingHook`] fused into every trailing tile task and an
/// explicit [`DagExecution`] mode, in place on `a`: the prologue, then every iteration
/// as one graph. Returns the per-task measured [`DagTiming`]; on error `a` holds the
/// partial factorization.
///
/// Generic over the [`Element`] type: the mixed-precision path is this driver at
/// `E = f32` (same graph, same hook call sites, same retry protocol), and the
/// bit-identity guarantees above hold per element type.
pub fn cholesky_dag_with<E: Element>(
    a: &mut Matrix<E>,
    block: usize,
    hook: &dyn TrailingHook<E>,
    exec: DagExecution,
) -> Result<DagTiming, CholeskyError> {
    if !a.is_square() {
        return Err(CholeskyError::NotSquare);
    }
    let mut graph = chol_graph(std::mem::replace(a, Matrix::zeros(0, 0)), block);
    let result = graph.prologue().and_then(|()| graph.run(0..graph.iterations(), hook, exec));
    let (factored, _, timing) = graph.into_parts();
    *a = factored;
    result.map(|_| timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::generate::random_spd_matrix;
    use crate::verify::cholesky_residual;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn factors_solve_surface_recovers_known_solution() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 31;
        let a = random_spd_matrix(&mut rng, n);
        let x_true = crate::generate::random_matrix(&mut rng, n, 3);
        let b = gemm(&a, Trans::No, &x_true, Trans::No);
        let mut storage = a.clone();
        cholesky_blocked(&mut storage, 8).unwrap();
        let f = CholeskyFactors::from_storage(storage);
        let x = f.solve(&b);
        assert!(x.approx_eq(&x_true, 1e-7), "CholeskyFactors::solve drifted");
        // l() zeroes the stale upper triangle; solving against it must agree
        // bitwise with solving against the raw storage (only L is referenced).
        assert_eq!(x.data(), crate::solve::cholesky_solve(&f.l(), &b).data());
    }

    #[test]
    fn factorizes_small_known_matrix() {
        // A = L L^T with L = [[2,0],[3,1]]
        let mut a = Matrix::from_rows(&[&[4.0, 6.0], &[6.0, 10.0]]);
        cholesky_blocked(&mut a, 1).unwrap();
        assert!((a.get(0, 0) - 2.0).abs() < 1e-12);
        assert!((a.get(1, 0) - 3.0).abs() < 1e-12);
        assert!((a.get(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blocked_matches_unblocked_and_reconstructs() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [5, 16, 33, 64] {
            let a0 = random_spd_matrix(&mut rng, n);
            let mut a_blocked = a0.clone();
            cholesky_blocked(&mut a_blocked, 8).unwrap();
            let mut a_unblocked = a0.clone();
            cholesky_blocked(&mut a_unblocked, n).unwrap();
            let lb = a_blocked.lower_triangular();
            let lu = a_unblocked.lower_triangular();
            assert!(lb.approx_eq(&lu, 1e-8), "blocked and unblocked L differ for n={n}");
            assert!(cholesky_residual(&a0, &lb) < 1e-10);
            let rec = gemm(&lb, Trans::No, &lb, Trans::Yes);
            assert!(rec.approx_eq(&a0, 1e-8));
        }
    }

    #[test]
    fn rejects_non_square() {
        let mut a = Matrix::zeros(3, 4);
        assert_eq!(cholesky_blocked(&mut a, 2), Err(CholeskyError::NotSquare));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        let err = cholesky_blocked(&mut a, 2).unwrap_err();
        assert!(matches!(err, CholeskyError::NotPositiveDefinite(_)));
    }

    #[test]
    fn non_finite_pivots_are_rejected_by_every_driver() {
        // `d <= 0` is false for NaN and +Inf: every driver used to return Ok(()) with
        // non-finite factors here.
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let spd = random_spd_matrix(&mut rng, 32);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut a0 = spd.clone();
            a0.set(20, 20, bad);
            let want = Err(CholeskyError::NotPositiveDefinite(20));
            assert_eq!(cholesky_blocked(&mut a0.clone(), 8), want, "blocked, {bad}");
            assert_eq!(cholesky_stepped(&mut a0.clone(), 8), want, "stepper, {bad}");
            assert_eq!(cholesky_dag(&mut a0.clone(), 8), want, "dag f64, {bad}");
            let f32_run = cholesky_dag_with(&mut a0.demote(), 8, &(), DagExecution::Pool);
            assert_eq!(f32_run.map(|_| ()), want, "dag f32, {bad}");
        }
    }

    #[test]
    fn iteration_count() {
        assert_eq!(num_iterations(100, 32), 4);
        assert_eq!(num_iterations(96, 32), 3);
        assert_eq!(num_iterations(1, 32), 1);
    }

    /// The stepped driver on `a`, in place: the prologue, then one graph per iteration.
    fn cholesky_stepped(a: &mut Matrix, block: usize) -> Result<(), CholeskyError> {
        let mut stepper = CholeskyTiledStepper::new(a.clone(), block)?;
        for k in 0..stepper.iterations() {
            stepper.step(k, &())?;
        }
        *a = stepper.into_matrix();
        Ok(())
    }

    #[test]
    fn stepped_is_bit_identical_to_blocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for (n, b) in [(1, 1), (5, 2), (16, 8), (33, 8), (64, 16), (40, 64)] {
            let a0 = random_spd_matrix(&mut rng, n);
            let mut sync = a0.clone();
            cholesky_blocked(&mut sync, b).unwrap();
            let mut stepped = a0.clone();
            cholesky_stepped(&mut stepped, b).unwrap();
            assert_eq!(sync, stepped, "factors differ n={n} b={b}");
        }
    }

    #[test]
    fn stepped_rejects_indefinite_and_non_square() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            cholesky_stepped(&mut a, 1),
            Err(CholeskyError::NotPositiveDefinite(_))
        ));
        let mut a = Matrix::zeros(3, 4);
        assert_eq!(cholesky_stepped(&mut a, 2), Err(CholeskyError::NotSquare));
    }

    #[test]
    fn dag_is_bit_identical_to_blocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for (n, b) in [(1, 1), (5, 2), (16, 8), (33, 8), (64, 16), (40, 64)] {
            let a0 = random_spd_matrix(&mut rng, n);
            let mut sync = a0.clone();
            cholesky_blocked(&mut sync, b).unwrap();
            let mut dag = a0.clone();
            cholesky_dag(&mut dag, b).unwrap();
            assert_eq!(sync, dag, "factors differ n={n} b={b}");
            for seed in [0u64, 1, 2] {
                let mut replayed = a0.clone();
                let timing =
                    cholesky_dag_with(&mut replayed, b, &(), DagExecution::Replay { seed })
                        .unwrap();
                assert_eq!(sync, replayed, "replay differs n={n} b={b} seed={seed}");
                assert_eq!(timing.panel_s.len(), num_iterations(n, b));
            }
        }
    }

    #[test]
    fn dag_rejects_indefinite_and_non_square() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            cholesky_dag(&mut a, 1),
            Err(CholeskyError::NotPositiveDefinite(_))
        ));
        let mut a = Matrix::zeros(3, 4);
        assert_eq!(cholesky_dag(&mut a, 2), Err(CholeskyError::NotSquare));
    }
}
