//! Blocked LU factorization with partial pivoting (`P A = L U`).
//!
//! Structure per iteration (paper Figure 1a):
//! 1. **PD** — [`panel_factor`]: unblocked LU of the tall panel with partial pivoting
//!    (run on the CPU in the hybrid algorithm);
//! 2. row interchanges are applied to the rest of the matrix;
//! 3. **PU** — [`panel_update`]: `U₁₂ ← L₁₁⁻¹ A₁₂` (TRSM, on the GPU);
//! 4. **TMU** — [`trailing_update`]: `A₂₂ ← A₂₂ − L₂₁ U₁₂` (GEMM, on the GPU).

use crate::blas1::{axpy, iamax, scal};
use crate::blas3::{
    gemm_acc_cols, gemm_acc_cols_prepacked, gemm_into_block, repack_a_op, trsm_into_block,
    trsm_unit_lower_cols, Diag, PackedA, Side, Trans, UpLo,
};
use crate::dag::{Checkpoint, DagExecution, DagTiming, FactorGraph, TileGraph, TileTasks};
use crate::elem::Element;
use crate::matrix::{Block, Matrix};
use crate::task::{
    panel_attempt, restore_rows, snapshot_rows, StepTiming, TileCols, TileVerdict, TrailingHook,
};
use std::ops::Range;

/// Error returned by the LU factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum LuError {
    /// The input matrix is not square.
    NotSquare,
    /// An exactly singular pivot was encountered at the given column.
    Singular(usize),
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::NotSquare => write!(f, "matrix is not square"),
            LuError::Singular(j) => write!(f, "matrix is singular at column {j}"),
        }
    }
}

impl std::error::Error for LuError {}

/// Panel width at and below which [`panel_factor`] switches from recursion to the
/// slice-based column loop. Narrow enough that the base case's rank-1 sweeps stay in
/// cache, wide enough that the recursion's GEMM calls see a useful `k`.
const PANEL_BASE: usize = 16;

/// LU with partial pivoting of the panel `A[j0.., j0..j0+nb]` (PD).
///
/// On return the row swaps have been applied to the *entire* matrix (left and right of
/// the panel), and the global pivot rows are appended to `pivots` (one entry per panel
/// column: the row that was swapped into the diagonal position).
///
/// Internally the swaps touch only the panel columns while the panel is being factored
/// and are batch-applied to the rest of the matrix once at the end
/// ([`Matrix::apply_row_swaps`], LAPACK `dlaswp`) — `nb` swaps cost one cache-friendly
/// pass over the outside columns instead of `nb` strided row sweeps.
///
/// Wide panels are factored recursively (LAPACK `dgetrf`'s recursive variant): the left
/// half is factored, the top-right quarter solved by TRSM, the bottom-right quarter
/// updated by one GEMM, then the right half is factored. This turns the bulk of the
/// panel flops into packed level-3 kernel calls — a flat column loop performs `nb`
/// memory-bound rank-1 sweeps over the full panel height instead. Below `PANEL_BASE`
/// columns the slice-based loop of `panel_factor_base` takes over.
pub fn panel_factor(
    a: &mut Matrix,
    j0: usize,
    nb: usize,
    pivots: &mut Vec<usize>,
) -> Result<(), LuError> {
    let piv_start = pivots.len();
    let result = panel_factor_cols(a, j0, nb, j0, j0 + nb, pivots);
    // Batch-apply the panel's swaps (including any recorded before an error) to the
    // columns outside the panel so the matrix state matches swaps-everywhere semantics.
    let swaps = &pivots[piv_start..];
    a.apply_row_swaps(j0, swaps, 0, j0);
    let cols = a.cols();
    a.apply_row_swaps(j0, swaps, j0 + nb, cols);
    result
}

/// Recursive LU of the panel, applying row swaps to columns `[col_lo, col_hi)` only
/// (the full panel range, fixed across recursion levels).
fn panel_factor_cols(
    a: &mut Matrix,
    j0: usize,
    nb: usize,
    col_lo: usize,
    col_hi: usize,
    pivots: &mut Vec<usize>,
) -> Result<(), LuError> {
    if nb <= PANEL_BASE {
        return panel_factor_base(a, j0, nb, col_lo, col_hi, pivots);
    }
    let n = a.rows();
    let nl = nb / 2;
    let nr = nb - nl;
    // Factor the left half of the panel (swaps hit all panel columns immediately).
    panel_factor_cols(a, j0, nl, col_lo, col_hi, pivots)?;
    // U₁₂ (within the panel) ← L₁₁⁻¹ A₁₂.
    let l11 = a.copy_block(Block::new(j0, j0, nl, nl)).unit_lower_triangular();
    trsm_into_block(
        Side::Left,
        UpLo::Lower,
        Trans::No,
        Diag::Unit,
        1.0,
        &l11,
        a,
        Block::new(j0, j0 + nl, nl, nr),
    );
    // A₂₂ (within the panel) ← A₂₂ − L₂₁ U₁₂: one GEMM instead of `nl` rank-1 sweeps.
    let l21 = a.copy_block(Block::new(j0 + nl, j0, n - j0 - nl, nl));
    let u12 = a.copy_block(Block::new(j0, j0 + nl, nl, nr));
    gemm_into_block(
        -1.0,
        &l21,
        Trans::No,
        &u12,
        Trans::No,
        1.0,
        a,
        Block::new(j0 + nl, j0 + nl, n - j0 - nl, nr),
    );
    // Factor the right half.
    panel_factor_cols(a, j0 + nl, nr, col_lo, col_hi, pivots)
}

/// Base-case unblocked LU of a narrow panel: slice-based pivot search, O(1)-per-column
/// row swaps over the panel columns only, one `scal` for the multipliers and one `axpy`
/// per remaining panel column.
fn panel_factor_base(
    a: &mut Matrix,
    j0: usize,
    nb: usize,
    col_lo: usize,
    col_hi: usize,
    pivots: &mut Vec<usize>,
) -> Result<(), LuError> {
    let n = a.rows();
    for j in j0..j0 + nb {
        // Pivot search in column j, rows j..n. iamax never selects NaN, so a NaN pivot
        // means the whole remaining column is NaN — reject it (and an infinite pivot)
        // like an exact zero instead of letting scal(1/p) poison the panel.
        let piv = j + iamax(a.col_range(j, j, n));
        let p = a.get(piv, j);
        if p == 0.0 || !p.is_finite() {
            return Err(LuError::Singular(j));
        }
        pivots.push(piv);
        if piv != j {
            // One in-slice swap per panel column: O(1) per column, no index arithmetic.
            a.swap_rows(j, piv, col_lo, col_hi);
        }
        // Scale the multipliers below the pivot in one slice pass.
        let d = a.get(j, j);
        scal(1.0 / d, a.col_range_mut(j, j + 1, n));
        // Vectorized rank-1 update of the remaining panel columns: each is one axpy
        // against the freshly scaled pivot column.
        for c in j + 1..j0 + nb {
            let (pivot_col, update_col) = a.col_pair_mut(j, c);
            let ujc = update_col[j];
            if ujc != 0.0 {
                axpy(-ujc, &pivot_col[j + 1..n], &mut update_col[j + 1..n]);
            }
        }
    }
    Ok(())
}

/// Panel update (PU) of iteration `k`: `U₁₂ ← L₁₁⁻¹ A₁₂` over columns right of the panel.
pub fn panel_update(a: &mut Matrix, j0: usize, nb: usize) {
    let n = a.cols();
    if j0 + nb >= n {
        return;
    }
    let l11 = a
        .copy_block(Block::new(j0, j0, nb, nb))
        .unit_lower_triangular();
    trsm_into_block(
        Side::Left,
        UpLo::Lower,
        Trans::No,
        Diag::Unit,
        1.0,
        &l11,
        a,
        Block::new(j0, j0 + nb, nb, n - j0 - nb),
    );
}

/// Trailing matrix update (TMU) of iteration `k`: `A₂₂ ← A₂₂ − L₂₁ U₁₂`.
///
/// `col_limit` restricts the update to trailing columns `< col_limit` (global index); the
/// hybrid driver uses this to split the update into the look-ahead part (next panel
/// columns, TMU′) and the remainder (TMU). Pass `a.cols()` for the full update.
pub fn trailing_update_cols(a: &mut Matrix, j0: usize, nb: usize, col_start: usize, col_end: usize) {
    let n = a.rows();
    if j0 + nb >= n || col_start >= col_end {
        return;
    }
    let l21 = a.copy_block(Block::new(j0 + nb, j0, n - j0 - nb, nb));
    let u12 = a.copy_block(Block::new(j0, col_start, nb, col_end - col_start));
    gemm_into_block(
        -1.0,
        &l21,
        Trans::No,
        &u12,
        Trans::No,
        1.0,
        a,
        Block::new(j0 + nb, col_start, n - j0 - nb, col_end - col_start),
    );
}

/// Full trailing matrix update of iteration `k`.
pub fn trailing_update(a: &mut Matrix, j0: usize, nb: usize) {
    let cols = a.cols();
    trailing_update_cols(a, j0, nb, j0 + nb, cols);
}

/// Result of a full LU factorization: the factors are stored in place in `lu` (unit lower
/// triangle = L without its diagonal, upper triangle = U) and `pivots[j]` records the row
/// swapped into position `j`.
#[derive(Debug, Clone)]
pub struct LuFactors<E: Element = f64> {
    /// Combined L/U storage.
    pub lu: Matrix<E>,
    /// Pivot rows, one per column.
    pub pivots: Vec<usize>,
}

impl<E: Element> LuFactors<E> {
    /// Extract the unit-lower-triangular factor `L`.
    pub fn l(&self) -> Matrix<E> {
        self.lu.unit_lower_triangular()
    }

    /// Extract the upper-triangular factor `U`.
    pub fn u(&self) -> Matrix<E> {
        self.lu.upper_triangular()
    }

    /// Apply the recorded row interchanges to a copy of `m` (computes `P · m`).
    ///
    /// The swaps are composed into one row permutation once (`out[i] = m[perm[i]]`),
    /// then every column is one gather, instead of replaying all swaps per column.
    pub fn apply_permutation(&self, m: &Matrix<E>) -> Matrix<E> {
        let rows = m.rows();
        let mut perm: Vec<usize> = (0..rows).collect();
        for (k, &p) in self.pivots.iter().enumerate() {
            perm.swap(k, p);
        }
        let mut data = Vec::with_capacity(rows * m.cols());
        for j in 0..m.cols() {
            let col = m.col(j);
            data.extend(perm.iter().map(|&i| col[i]));
        }
        Matrix::from_column_major(rows, m.cols(), data)
    }

    /// Solve `A X = B` against these factors (LAPACK `getrs`), delegating to
    /// [`crate::solve::lu_solve`]. `B` may carry any number of right-hand sides and
    /// is left untouched; service clients get solutions without re-assembling the
    /// packed storage themselves.
    pub fn solve(&self, b: &Matrix<E>) -> Matrix<E> {
        crate::solve::lu_solve(&self.lu, &self.pivots, b)
    }
}

/// Blocked LU factorization with partial pivoting and block size `block`.
pub fn lu_blocked(a: &Matrix, block: usize) -> Result<LuFactors, LuError> {
    if !a.is_square() {
        return Err(LuError::NotSquare);
    }
    assert!(block > 0, "block size must be positive");
    let n = a.rows();
    let mut lu = a.clone();
    let mut pivots = Vec::with_capacity(n);
    let mut j0 = 0;
    while j0 < n {
        let nb = block.min(n - j0);
        panel_factor(&mut lu, j0, nb, &mut pivots)?;
        panel_update(&mut lu, j0, nb);
        trailing_update(&mut lu, j0, nb);
        j0 += nb;
    }
    Ok(LuFactors { lu, pivots })
}

/// Number of blocked iterations for order `n`, block size `b`.
pub fn num_iterations(n: usize, b: usize) -> usize {
    n.div_ceil(b)
}

// =======================================================================================
// The tile task graph (see `crate::dag`): one iteration at a time, or all at once.
// =======================================================================================

/// Recursive slice-native LU panel, the twin of [`panel_factor`]'s recursion that
/// runs in a tile's own column slices: factor columns `[jcol, jcol + nb)` of the panel
/// whose first diagonal element sits at absolute row `diag_row0` (so column `jcol + j`
/// has its diagonal at row `diag_row0 + jcol + j`). Row swaps are applied to *all*
/// panel columns immediately, exactly like [`panel_factor_cols`]; pivots are absolute
/// row indices. Operation-for-operation identical to the Matrix-based recursion
/// (same half splits, same `L11`/`L21`/`U12` copies, same packed TRSM/GEMM), so the
/// bits match.
fn panel_factor_slices<E: Element>(
    cols: &mut [&mut [E]],
    diag_row0: usize,
    jcol: usize,
    nb: usize,
    col0: usize,
    pivots: &mut Vec<usize>,
) -> Result<(), LuError> {
    use crate::task::{col_pair, extract_cols};
    let n = cols[0].len();
    if nb <= PANEL_BASE {
        // Base case: slice-based pivot search, whole-panel row swaps, one scal for the
        // multipliers and one axpy per remaining active column.
        for jj in jcol..jcol + nb {
            let arow = diag_row0 + jj;
            let piv = arow + iamax(&cols[jj][arow..n]);
            let p = cols[jj][piv];
            if p == E::ZERO || !p.is_finite() {
                return Err(LuError::Singular(col0 + jj));
            }
            pivots.push(piv);
            if piv != arow {
                for col in cols.iter_mut() {
                    col.swap(arow, piv);
                }
            }
            let d = cols[jj][arow];
            scal(E::ONE / d, &mut cols[jj][arow + 1..n]);
            for c in jj + 1..jcol + nb {
                let (pivot_col, update_col) = col_pair(cols, jj, c);
                let ujc = update_col[arow];
                if ujc != E::ZERO {
                    axpy(-ujc, &pivot_col[arow + 1..n], &mut update_col[arow + 1..n]);
                }
            }
        }
        return Ok(());
    }
    let nl = nb / 2;
    let nr = nb - nl;
    // Factor the left half (swaps hit all panel columns immediately).
    panel_factor_slices(cols, diag_row0, jcol, nl, col0, pivots)?;
    let arow = diag_row0 + jcol;
    // U₁₂ (within the panel) ← L₁₁⁻¹ A₁₂, solved in place in the right half.
    let l11 = extract_cols(&cols[jcol..jcol + nl], arow, arow + nl).unit_lower_triangular();
    trsm_unit_lower_cols(&l11, arow, &mut cols[jcol + nl..jcol + nb]);
    // A₂₂ (within the panel) ← A₂₂ − L₂₁ U₁₂: one GEMM instead of `nl` rank-1 sweeps.
    let l21 = extract_cols(&cols[jcol..jcol + nl], arow + nl, n);
    let u12 = extract_cols(&cols[jcol + nl..jcol + nb], arow, arow + nl);
    let mut sub: Vec<&mut [E]> = cols[jcol + nl..jcol + nb]
        .iter_mut()
        .map(|c| &mut c[arow + nl..n])
        .collect();
    gemm_acc_cols(-1.0, &l21, Trans::No, 0, &u12, Trans::No, 0, &mut sub, false);
    // Factor the right half.
    panel_factor_slices(cols, diag_row0, jcol + nl, nr, col0, pivots)
}

/// One LU trailing tile task of iteration `k`: deferred row swaps of panel `k`, TRSM
/// of the `U` tile against `L11`, GEMM of the trailing rows against `L21`, then the
/// trailing hook over rows `[j0, n)` — the full row span the task writes. The `U12`
/// band (rows `[j0, j0 + nb)`, the TRSM output) becomes final `U` entries this
/// iteration and is never revisited, so a hook that skipped it would leave those
/// values permanently unchecked.
///
/// Each call is one **self-contained attempt**: if the hook opted into snapshots and
/// returns [`TileVerdict::Recompute`], the tile is rolled back to its pre-attempt
/// contents (including the deferred swaps) before the verdict is passed to the
/// caller, so simply calling again re-runs the identical update from clean inputs.
#[allow(clippy::too_many_arguments)] // mirrors the per-iteration operand set
fn lu_update_tile<E: Element>(
    tile: &mut TileCols<'_, E>,
    iter: usize,
    j0: usize,
    nb: usize,
    swaps: &[usize],
    l11: &Matrix<E>,
    l21p: &PackedA<E>,
    hook: &dyn TrailingHook<E>,
) -> TileVerdict {
    let snap = hook.wants_snapshots().then(|| snapshot_rows(&tile.cols, j0, tile.width()));
    tile.apply_row_swaps(j0, swaps);
    // U tile ← L11⁻¹ · A tile (the per-tile slice of the panel update, PU), solved
    // in place in the tile's own columns.
    trsm_unit_lower_cols(l11, j0, &mut tile.cols);
    // Trailing rows ← trailing − L21 · U (the per-tile slice of the TMU); the solved
    // U tile is copied out once as the GEMM operand (mirroring the synchronous
    // driver's u12 copy) and L21 comes pre-packed, shared by all tile tasks.
    let u = tile.extract(j0, j0 + nb);
    let col0 = tile.col0;
    {
        let mut sub = tile.rows_from(j0 + nb);
        gemm_acc_cols_prepacked(-1.0, l21p, 0, &u, Trans::No, 0, &mut sub, false);
    }
    let verdict = {
        let mut hook_rows = tile.rows_from(j0);
        hook.after_tile_update(iter, col0, j0, &mut hook_rows)
    };
    if verdict == TileVerdict::Recompute {
        if let Some(snap) = &snap {
            restore_rows(&mut tile.cols, j0, snap);
            return TileVerdict::Recompute;
        }
    }
    TileVerdict::Accept
}

/// LU's tile tasks: the lookahead panel with partial pivoting, the trailing update,
/// and the deferred row swaps on already-final groups.
struct LuTasks;

/// What `Panel(p)` publishes: its pivot rows, plus `L11` (unit lower) and `L21`
/// pre-packed once for all of iteration `p`'s update tasks.
struct LuPanel<E: Element> {
    pivots: Vec<usize>,
    l11: Matrix<E>,
    l21p: PackedA<E>,
}

impl<E: Element> TileTasks<E> for LuTasks {
    type Factored = Vec<usize>;
    type Panel = LuPanel<E>;
    type Error = LuError;
    const LEFT_SWAPS: bool = true;

    /// Factor the panel in its own tile's column slices, swapping only within them.
    /// Swaps on the other columns are deferred: groups right of the panel receive
    /// them at the start of their next update task, groups left of it in a `LeftSwap`
    /// task. Permutations compose, so late application is bit-identical to the eager
    /// `dlaswp` of [`panel_factor`].
    fn panel(
        &self,
        tile: &mut TileCols<'_, E>,
        iter: usize,
        hook: &dyn TrailingHook<E>,
    ) -> Option<Result<Vec<usize>, LuError>> {
        let (row0, nb) = (tile.col0, tile.width());
        panel_attempt(tile, iter, hook, |tile| {
            let mut pivots = Vec::with_capacity(nb);
            panel_factor_slices(&mut tile.cols, row0, 0, nb, row0, &mut pivots).map(|()| pivots)
        })
    }

    fn publish(&self, tile: &TileCols<'_, E>, pivots: Vec<usize>) -> LuPanel<E> {
        let (row0, nb, n) = (tile.col0, tile.width(), tile.rows());
        let l11 = tile.extract(row0, row0 + nb).unit_lower_triangular();
        let mut l21p = PackedA::default();
        repack_a_op(&mut l21p, &tile.extract(row0 + nb, n), Trans::No, 0, 0, n - row0 - nb, nb);
        LuPanel { pivots, l11, l21p }
    }

    fn update(
        &self,
        tile: &mut TileCols<'_, E>,
        p: usize,
        j0: usize,
        nb: usize,
        panel: &LuPanel<E>,
        hook: &dyn TrailingHook<E>,
    ) -> TileVerdict {
        if tile.col0 < j0 {
            // LeftSwap(p, g): panel p's deferred swaps on an already-final group.
            tile.apply_row_swaps(j0, &panel.pivots);
            return TileVerdict::Accept;
        }
        lu_update_tile(tile, p, j0, nb, &panel.pivots, &panel.l11, &panel.l21p, hook)
    }
}

/// LU's tile task graph (see [`crate::dag`]), one iteration at a time: the stepped
/// driver, and the state [`lu_dag_with`] runs whole. Stepping through every iteration
/// in order produces factors and pivots **bit-identical** to [`lu_blocked`] and
/// [`lu_dag_with`] with the same block size, at any thread count; each step reports
/// its measured [`StepTiming`]. Generic over the [`Element`] type like the DAG driver.
pub struct LuTiledStepper<E: Element = f64>(TileGraph<E, LuTasks>);

impl<E: Element> LuTiledStepper<E> {
    /// Copy `a` and factor panel 0, the prologue every run pays before its first
    /// trailing update.
    pub fn new(a: &Matrix<E>, block: usize) -> Result<Self, LuError> {
        if !a.is_square() {
            return Err(LuError::NotSquare);
        }
        let label = format!("lu n={} b={block}", a.rows());
        let mut graph = TileGraph::new(LuTasks, a.clone(), a.rows(), block, label);
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

    /// Run iteration `k`'s graph on the pool (its trailing tile updates, deferred left
    /// swaps and lookahead panel `k + 1`) with `hook` fused into every trailing tile
    /// and panel task.
    pub fn step(&mut self, k: usize, hook: &dyn TrailingHook<E>) -> Result<StepTiming, LuError> {
        self.0.step(k, hook)
    }

    /// Package the factors after the final step.
    pub fn into_factors(self) -> LuFactors<E> {
        let (lu, panels, _) = self.0.into_parts();
        LuFactors { lu, pivots: panels.flat_map(|p| p.pivots).collect() }
    }
}

impl<E: Element> FactorGraph<E> for LuTiledStepper<E> {
    type Error = LuError;

    fn run(
        &mut self,
        iters: Range<usize>,
        hook: &dyn TrailingHook<E>,
        exec: DagExecution,
    ) -> Result<f64, LuError> {
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

/// Dependency-driven DAG LU with partial pivoting and depth-unbounded panel lookahead.
///
/// Same math, same bits as [`lu_blocked`] with the same block size, at any thread
/// count and under any task schedule: every tile task becomes runnable the moment its
/// own tile (from iteration `k − 1`) and panel `k`'s operands are final, so iteration
/// `k + 2`'s GEMMs can start while iteration `k`'s slow tiles are still in flight. See
/// [`crate::dag`] for the graph shape and the determinism argument.
pub fn lu_dag(a: &Matrix, block: usize) -> Result<LuFactors, LuError> {
    lu_dag_with(a, block, &(), DagExecution::Pool).map(|(f, _)| f)
}

/// [`lu_dag`] with a [`TrailingHook`] fused into every trailing tile task and an
/// explicit [`DagExecution`] mode; also returns the per-task measured [`DagTiming`]:
/// [`LuTiledStepper::new`], then every iteration as one graph.
///
/// Generic over the [`Element`] type: the mixed-precision path is this driver at
/// `E = f32` (same graph, same hook call sites, same retry protocol), and the
/// bit-identity guarantees above hold per element type.
pub fn lu_dag_with<E: Element>(
    a: &Matrix<E>,
    block: usize,
    hook: &dyn TrailingHook<E>,
    exec: DagExecution,
) -> Result<(LuFactors<E>, DagTiming), LuError> {
    let mut graph = LuTiledStepper::new(a, block)?;
    graph.run(0..graph.iterations(), hook, exec)?;
    let timing = graph.timing().clone();
    Ok((graph.into_factors(), timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use crate::generate::{random_diag_dominant_matrix, random_matrix};
    use crate::verify::lu_residual;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn factors_solve_surface_recovers_known_solution() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let n = 29;
        let a = random_diag_dominant_matrix(&mut rng, n);
        let x_true = random_matrix(&mut rng, n, 2);
        let b = gemm(&a, Trans::No, &x_true, Trans::No);
        let f = lu_blocked(&a, 8).unwrap();
        let x = f.solve(&b);
        assert!(x.approx_eq(&x_true, 1e-8), "LuFactors::solve drifted");
        // The delegate and the method are the same computation, bit for bit.
        assert_eq!(x.data(), crate::solve::lu_solve(&f.lu, &f.pivots, &b).data());
    }

    #[test]
    fn apply_permutation_equals_replaying_the_swaps() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let (n, b) = (37, 8);
        let f = lu_blocked(&random_matrix(&mut rng, n, n), b).unwrap();
        assert!(
            f.pivots.iter().enumerate().any(|(k, &p)| p != k),
            "no row was swapped"
        );
        let m = random_matrix(&mut rng, n, 5);
        let mut replayed = m.clone();
        replayed.apply_row_swaps(0, &f.pivots, 0, m.cols());
        assert_eq!(f.apply_permutation(&m).data(), replayed.data());
    }

    #[test]
    fn factorizes_known_matrix_with_pivoting() {
        // First pivot must swap rows 0 and 1.
        let a = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 8.0]]);
        let f = lu_blocked(&a, 2).unwrap();
        assert_eq!(f.pivots, vec![1, 1]);
        let pa = f.apply_permutation(&a);
        let rec = gemm(&f.l(), Trans::No, &f.u(), Trans::No);
        assert!(rec.approx_eq(&pa, 1e-12));
    }

    #[test]
    fn blocked_matches_unblocked_on_random_matrices() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for n in [6, 17, 32, 64] {
            let a = random_matrix(&mut rng, n, n);
            let blocked = lu_blocked(&a, 8).unwrap();
            let unblocked = lu_blocked(&a, n).unwrap();
            assert_eq!(blocked.pivots, unblocked.pivots, "pivot sequences differ n={n}");
            assert!(blocked.lu.approx_eq(&unblocked.lu, 1e-9));
            assert!(lu_residual(&a, &blocked) < 1e-10, "residual too large for n={n}");
        }
    }

    #[test]
    fn diag_dominant_needs_no_pivoting() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let a = random_diag_dominant_matrix(&mut rng, 24);
        let f = lu_blocked(&a, 8).unwrap();
        assert!(f.pivots.iter().enumerate().all(|(j, &p)| p == j));
        assert!(lu_residual(&a, &f) < 1e-10);
    }

    #[test]
    fn lookahead_split_matches_full_update() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let n = 32;
        let b = 8;
        let a = random_matrix(&mut rng, n, n);
        // Full update path.
        let mut full = a.clone();
        let mut piv_full = Vec::new();
        panel_factor(&mut full, 0, b, &mut piv_full).unwrap();
        panel_update(&mut full, 0, b);
        trailing_update(&mut full, 0, b);
        // Split path: look-ahead columns first, then the rest.
        let mut split = a.clone();
        let mut piv_split = Vec::new();
        panel_factor(&mut split, 0, b, &mut piv_split).unwrap();
        panel_update(&mut split, 0, b);
        trailing_update_cols(&mut split, 0, b, b, 2 * b);
        trailing_update_cols(&mut split, 0, b, 2 * b, n);
        assert_eq!(piv_full, piv_split);
        assert!(full.approx_eq(&split, 1e-12));
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::zeros(3, 3);
        assert!(matches!(lu_blocked(&a, 2), Err(LuError::Singular(0))));
    }

    #[test]
    fn nan_pivot_column_is_rejected_not_propagated() {
        // Column 0 entirely NaN: iamax returns index 0 and the pivot is NaN, which must
        // surface as Singular instead of an Ok factorization full of NaN.
        let a = Matrix::from_fn(3, 3, |i, j| if j == 0 { f64::NAN } else { (i + j) as f64 });
        assert!(matches!(lu_blocked(&a, 2), Err(LuError::Singular(0))));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(3, 4);
        assert!(matches!(lu_blocked(&a, 2), Err(LuError::NotSquare)));
    }

    #[test]
    fn iteration_count() {
        assert_eq!(num_iterations(30720, 512), 60);
        assert_eq!(num_iterations(100, 30), 4);
    }

    /// The stepped driver: the prologue, then one graph per iteration.
    fn lu_stepped(a: &Matrix, block: usize) -> Result<LuFactors, LuError> {
        let mut stepper = LuTiledStepper::new(a, block)?;
        for k in 0..stepper.iterations() {
            stepper.step(k, &())?;
        }
        Ok(stepper.into_factors())
    }

    #[test]
    fn stepped_is_bit_identical_to_blocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        for (n, b) in [(1, 1), (5, 2), (16, 8), (33, 8), (64, 16), (40, 64)] {
            let a = random_matrix(&mut rng, n, n);
            let sync = lu_blocked(&a, b).unwrap();
            let stepped = lu_stepped(&a, b).unwrap();
            assert_eq!(sync.pivots, stepped.pivots, "pivots differ n={n} b={b}");
            assert_eq!(sync.lu, stepped.lu, "factors differ n={n} b={b}");
        }
    }

    #[test]
    fn stepped_detects_singularity() {
        let a = Matrix::zeros(6, 6);
        assert!(matches!(lu_stepped(&a, 2), Err(LuError::Singular(0))));
        let a = Matrix::zeros(3, 4);
        assert!(matches!(lu_stepped(&a, 2), Err(LuError::NotSquare)));
    }

    #[test]
    fn dag_is_bit_identical_to_blocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        for (n, b) in [(1, 1), (5, 2), (16, 8), (33, 8), (64, 16), (40, 64)] {
            let a = random_matrix(&mut rng, n, n);
            let sync = lu_blocked(&a, b).unwrap();
            let dag = lu_dag(&a, b).unwrap();
            assert_eq!(sync.pivots, dag.pivots, "pivots differ n={n} b={b}");
            assert_eq!(sync.lu, dag.lu, "factors differ n={n} b={b}");
            // Adversarial replay schedules must not change a bit either.
            for seed in [0u64, 1, 2] {
                let (replayed, timing) =
                    lu_dag_with(&a, b, &(), DagExecution::Replay { seed }).unwrap();
                assert_eq!(sync.lu, replayed.lu, "replay differs n={n} b={b} seed={seed}");
                assert_eq!(sync.pivots, replayed.pivots);
                assert_eq!(timing.panel_s.len(), num_iterations(n, b));
            }
        }
    }

    #[test]
    fn dag_detects_singularity_and_shape_errors() {
        let a = Matrix::zeros(6, 6);
        assert!(matches!(lu_dag(&a, 2), Err(LuError::Singular(0))));
        let a = Matrix::zeros(3, 4);
        assert!(matches!(lu_dag(&a, 2), Err(LuError::NotSquare)));
        // A singularity in a *later* panel must surface even though earlier groups'
        // chains keep draining.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut a = random_matrix(&mut rng, 12, 12);
        for i in 0..12 {
            a.set(i, 9, 0.0);
        }
        let sync = lu_blocked(&a, 4);
        let dag = lu_dag(&a, 4);
        assert_eq!(sync.unwrap_err(), dag.unwrap_err());
    }
}
