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
use crate::dag::{group_bounds, DagBuilder, DagExecution, DagTiming, TaskOutcome};
use crate::elem::Element;
use crate::matrix::{Block, Matrix};
use crate::task::{
    restore_rows, snapshot_rows, split_tiles, split_tiles_at, StepTiming, TileCols, TileVerdict,
    TrailingHook,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

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
    pub fn apply_permutation(&self, m: &Matrix<E>) -> Matrix<E> {
        let mut out = m.clone();
        let cols = out.cols();
        out.apply_row_swaps(0, &self.pivots, 0, cols);
        out
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
// Tiled task-parallel driver with one-step panel lookahead.
// =======================================================================================

/// Factor the diagonal panel held in `tile` (rows `[row0, n)`), swapping only within
/// the tile's own columns — the slice-native twin of [`panel_factor`]'s recursion,
/// running directly in the tile's column slices so a lookahead task touches nothing
/// but its own group and pays no extract/write-back round trip. Returns the global
/// pivot rows.
///
/// Swaps on columns *outside* the panel are deferred: the columns right of the panel
/// receive them at the start of their next trailing-update task, the columns left of
/// it in the next iteration's left-swap task — permutations compose, so late
/// application is bit-identical to the eager `dlaswp` of [`panel_factor`].
fn factor_panel_tile<E: Element>(
    tile: &mut TileCols<'_, E>,
    row0: usize,
) -> Result<Vec<usize>, LuError> {
    let nb = tile.width();
    let mut local = Vec::with_capacity(nb);
    panel_factor_slices(&mut tile.cols, row0, 0, nb, tile.col0, &mut local)?;
    Ok(local)
}

/// Recursive slice-native LU panel: factor columns `[jcol, jcol + nb)` of the panel
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

/// One lookahead-panel attempt: snapshot (when the hook may demand a rollback),
/// factor panel `k + 1` in place, then offer the fresh panel to the hook. On
/// [`TileVerdict::Recompute`] the panel rows are restored and `None` is returned —
/// the caller refactors from the identical pre-attempt state (same pivots, same
/// bits). `row0` is the panel's diagonal row (`== tile.col0` for LU).
fn lu_panel_attempt<E: Element>(
    tile: &mut TileCols<'_, E>,
    iter: usize,
    row0: usize,
    hook: &dyn TrailingHook<E>,
) -> Option<Result<Vec<usize>, LuError>> {
    let snap = hook.wants_snapshots().then(|| snapshot_rows(&tile.cols, row0, tile.width()));
    let col0 = tile.col0;
    match factor_panel_tile(tile, row0) {
        Ok(pv) => {
            let verdict = {
                let mut panel_rows = tile.rows_from(row0);
                hook.after_panel_factor(iter, col0, row0, &mut panel_rows)
            };
            if verdict == TileVerdict::Recompute {
                if let Some(snap) = &snap {
                    restore_rows(&mut tile.cols, row0, snap);
                    return None;
                }
            }
            Some(Ok(pv))
        }
        Err(e) => Some(Err(e)),
    }
}

/// Tiled task-parallel LU with partial pivoting and one-step panel lookahead.
///
/// Produces **bit-identical** factors and pivots to [`lu_blocked`] with the same block
/// size, at any thread count: the trailing update is decomposed into per-tile-column
/// GEMM/TRSM tasks whose per-element summation order does not depend on the partition,
/// row swaps outside the current panel are deferred to each column's next task, and
/// panel `k + 1` factorizes (inside the task that updates its tile first) concurrently
/// with the rest of trailing update `k`.
pub fn lu_tiled(a: &Matrix, block: usize) -> Result<LuFactors, LuError> {
    lu_tiled_with(a, block, &())
}

/// [`lu_tiled`] with a [`TrailingHook`] fused into every trailing tile task (the ABFT
/// checksum-maintenance fusion point — see `bsr-abft`'s `FusedTileChecksums`).
pub fn lu_tiled_with(
    a: &Matrix,
    block: usize,
    hook: &dyn TrailingHook,
) -> Result<LuFactors, LuError> {
    let mut stepper = LuTiledStepper::new(a, block)?;
    for k in 0..stepper.iterations() {
        stepper.step(k, hook)?;
    }
    Ok(stepper.into_factors())
}

/// Panel-0 prologue of the tiled drivers: factor the first panel synchronously (every
/// panel `k + 1` is factored by iteration `k`'s lookahead task).
fn lu_prologue(lu: &mut Matrix, block: usize, pivots: &mut Vec<usize>) -> Result<(), LuError> {
    let (_, mut tiles) = split_tiles(lu, 0, 0, block);
    pivots.extend(factor_panel_tile(&mut tiles[0], 0)?);
    Ok(())
}

/// What the lookahead task reports back: the panel factorization result and its
/// measured duration.
type PanelOutcome = (Result<Vec<usize>, LuError>, f64);

/// One tiled LU iteration: the per-tile-column task graph of trailing update `k`
/// with the lookahead factorization of panel `k + 1` riding its tile's task.
fn lu_step(
    lu: &mut Matrix,
    block: usize,
    pivots: &mut Vec<usize>,
    l21p: &mut PackedA,
    k: usize,
    hook: &dyn TrailingHook,
) -> Result<StepTiming, LuError> {
    let n = lu.rows();
    let j0 = k * block;
    let nb = block.min(n - j0);
    let swaps: Vec<usize> = pivots[j0..j0 + nb].to_vec();
    let region_t0 = Instant::now();
    if j0 + nb >= n {
        // Last panel: only its deferred swaps on the left columns remain.
        lu.apply_row_swaps(j0, &swaps, 0, j0);
        return Ok(StepTiming { panel_s: 0.0, update_s: region_t0.elapsed().as_secs_f64() });
    }
    // Operands shared (read-only) by all of this iteration's tasks; L21 is packed
    // once here instead of once per tile task inside the GEMMs.
    let l11 = lu.copy_block(Block::new(j0, j0, nb, nb)).unit_lower_triangular();
    repack_a_op(l21p, lu, Trans::No, j0 + nb, j0, n - j0 - nb, nb);
    let (left, tiles) = split_tiles(lu, j0, j0 + nb, block);
    let panel_result: Mutex<Option<PanelOutcome>> = Mutex::new(None);
    rayon::scope(|s| {
        let mut tiles = tiles.into_iter();
        // Lookahead: the tile feeding panel k + 1 is updated first and the panel
        // factorizes in the same task, overlapping the remaining tile updates.
        let look = tiles.next().expect("trailing tiles exist");
        {
            let (l11, l21p, swaps, panel_result) = (&l11, &*l21p, &swaps[..], &panel_result);
            s.spawn(move || {
                let mut tile = look;
                while lu_update_tile(&mut tile, k, j0, nb, swaps, l11, l21p, hook)
                    == TileVerdict::Recompute
                {}
                let panel_t0 = Instant::now();
                let result = loop {
                    if let Some(r) = lu_panel_attempt(&mut tile, k, j0 + nb, hook) {
                        break r;
                    }
                };
                let panel_s = panel_t0.elapsed().as_secs_f64();
                *panel_result.lock().unwrap() = Some((result, panel_s));
            });
        }
        for tile in tiles {
            let (l11, l21p, swaps) = (&l11, &*l21p, &swaps[..]);
            s.spawn(move || {
                let mut tile = tile;
                while lu_update_tile(&mut tile, k, j0, nb, swaps, l11, l21p, hook)
                    == TileVerdict::Recompute
                {}
            });
        }
        // Panel k's deferred swaps on the already-final columns left of the panel
        // ride the same schedule instead of serializing the iteration.
        if !left.is_empty() {
            let swaps = &swaps[..];
            s.spawn(move || {
                let mut left = left;
                crate::task::apply_row_swaps_cols(&mut left, j0, swaps);
            });
        }
    });
    let update_s = region_t0.elapsed().as_secs_f64();
    match panel_result.into_inner().unwrap() {
        Some((Ok(pv), panel_s)) => {
            pivots.extend(pv);
            Ok(StepTiming { panel_s, update_s })
        }
        Some((Err(e), _)) => Err(e),
        None => unreachable!("lookahead task always records a panel result"),
    }
}

/// Iteration-at-a-time driver of the tiled task-parallel LU: the per-iteration twin of
/// [`lu_tiled_with`], built for callers (the numeric-mode engine in `bsr-core`) that
/// interleave every blocked iteration with planning, fault injection and measured-time
/// accounting. Stepping through all iterations in order produces **bit-identical**
/// factors to [`lu_tiled`] / [`lu_blocked`], and each step reports its measured
/// [`StepTiming`].
pub struct LuTiledStepper {
    lu: Matrix,
    pivots: Vec<usize>,
    block: usize,
    l21p: PackedA,
    prologue_s: f64,
}

impl LuTiledStepper {
    /// Clone `a` and factor panel 0 synchronously (the prologue every tiled run pays
    /// before its first trailing update).
    pub fn new(a: &Matrix, block: usize) -> Result<Self, LuError> {
        if !a.is_square() {
            return Err(LuError::NotSquare);
        }
        assert!(block > 0, "block size must be positive");
        let n = a.rows();
        let mut lu = a.clone();
        let mut pivots = Vec::with_capacity(n);
        let t0 = Instant::now();
        if n > 0 {
            lu_prologue(&mut lu, block, &mut pivots)?;
        }
        let prologue_s = t0.elapsed().as_secs_f64();
        Ok(Self { lu, pivots, block, l21p: PackedA::default(), prologue_s })
    }

    /// Number of blocked iterations; [`Self::step`] must be called exactly once for
    /// each `k` in `0..iterations()`, in order.
    pub fn iterations(&self) -> usize {
        let n = self.lu.rows();
        if n == 0 { 0 } else { num_iterations(n, self.block) }
    }

    /// Measured duration of the panel-0 prologue factored by [`Self::new`].
    pub fn prologue_panel_s(&self) -> f64 {
        self.prologue_s
    }

    /// Run iteration `k`'s task graph (trailing tile updates + lookahead panel
    /// `k + 1`) with `hook` fused into every trailing tile task.
    pub fn step(&mut self, k: usize, hook: &dyn TrailingHook) -> Result<StepTiming, LuError> {
        lu_step(&mut self.lu, self.block, &mut self.pivots, &mut self.l21p, k, hook)
    }

    /// The matrix in its current (partially factored) state.
    pub fn matrix(&self) -> &Matrix {
        &self.lu
    }

    /// Snapshot the stepper's numeric state (matrix + pivots) so a recovery policy
    /// can replay an iteration: [`Self::restore`] followed by `step(k, ..)` re-runs
    /// iteration `k` bit-identically (the packed-operand scratch is rebuilt per
    /// step and needs no saving).
    pub fn checkpoint(&self) -> (Matrix, Vec<usize>) {
        (self.lu.clone(), self.pivots.clone())
    }

    /// Restore a [`Self::checkpoint`] taken before the current iteration.
    pub fn restore(&mut self, snap: &(Matrix, Vec<usize>)) {
        self.lu = snap.0.clone();
        self.pivots = snap.1.clone();
    }

    /// Package the factors after the final step.
    pub fn into_factors(self) -> LuFactors {
        LuFactors { lu: self.lu, pivots: self.pivots }
    }
}

// =======================================================================================
// Dependency-driven DAG driver (depth-unbounded lookahead; see `crate::dag`).
// =======================================================================================

/// Operands panel `k` publishes for its trailing-update consumers: `L11` (unit lower)
/// and `L21` pre-packed for the tile GEMMs. Written once by the `Panel(k)` task before
/// any consumer is unlocked; bit-identical to the barrier stepper's per-iteration
/// copies (the pack reads the same submatrix values).
struct LuPanelOps<E: Element> {
    l11: Matrix<E>,
    l21p: PackedA<E>,
}

/// Dependency-driven DAG LU with partial pivoting and depth-unbounded panel lookahead.
///
/// Same math, same bits as [`lu_blocked`] / [`lu_tiled`] with the same block size, at
/// any thread count and under any task schedule — but instead of a per-iteration
/// barrier, every tile task becomes runnable the moment its own tile (from iteration
/// `k − 1`) and panel `k`'s operands are final, so iteration `k + 2`'s GEMMs can start
/// while iteration `k`'s slow tiles are still in flight. See [`crate::dag`] for the
/// graph shape and the determinism argument.
pub fn lu_dag(a: &Matrix, block: usize) -> Result<LuFactors, LuError> {
    lu_dag_with(a, block, &(), DagExecution::Pool).map(|(f, _)| f)
}

/// [`lu_dag`] with a [`TrailingHook`] fused into every trailing tile task and an
/// explicit [`DagExecution`] mode; also returns the per-task measured [`DagTiming`].
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
    if !a.is_square() {
        return Err(LuError::NotSquare);
    }
    assert!(block > 0, "block size must be positive");
    let n = a.rows();
    let mut lu = a.clone();
    if n == 0 {
        return Ok((LuFactors { lu, pivots: Vec::new() }, DagTiming::default()));
    }
    let t0 = Instant::now();
    let bounds = group_bounds(n, n, block);
    let g = bounds.len();
    let width_of = |p: usize| bounds.get(p + 1).copied().unwrap_or(n) - bounds[p];
    let ops: Vec<OnceLock<LuPanelOps<E>>> = (0..g).map(|_| OnceLock::new()).collect();
    let swaps: Vec<OnceLock<Vec<usize>>> = (0..g).map(|_| OnceLock::new()).collect();
    let failed = AtomicBool::new(false);
    let error: Mutex<Option<LuError>> = Mutex::new(None);
    let panel_nanos: Vec<AtomicU64> = (0..g).map(|_| AtomicU64::new(0)).collect();
    let update_nanos: Vec<AtomicU64> = (0..g).map(|_| AtomicU64::new(0)).collect();
    let tiles: Vec<Mutex<TileCols<'_, E>>> =
        split_tiles_at(&mut lu, &bounds).into_iter().map(Mutex::new).collect();
    // Group `grp` owns one sequential chain with a task per iteration `p`
    // (id = grp · G + p): Update(p, grp) for p < grp, Panel(grp) at p = grp,
    // LeftSwap(p, grp) — panel p's deferred swaps on this already-final group — for
    // p > grp. Each task depends on its chain predecessor plus, when p ≠ grp, on
    // Panel(p)'s publication (id p · G + p).
    let mut builder = DagBuilder::new();
    for _ in 0..g * g {
        builder.add_task();
    }
    for grp in 0..g {
        for p in 0..g {
            let id = grp * g + p;
            if p > 0 {
                builder.add_edge(id - 1, id);
            }
            if p != grp {
                builder.add_edge(p * g + p, id);
            }
        }
    }
    crate::dag::execute(builder, exec, &format!("lu n={n} b={block}"), |id| {
        let grp = id / g;
        let p = id % g;
        let mut tile = tiles[grp].lock().unwrap();
        // After a panel failure the rest of the graph drains without numeric work
        // (counters still decrement, so nothing leaks); panels are totally ordered
        // through the chains, so exactly the first error is recorded.
        if failed.load(Ordering::Acquire) {
            return TaskOutcome::Done;
        }
        let j0 = bounds[p];
        let task_t0 = Instant::now();
        if p == grp {
            // Panel(grp) is iteration grp − 1's lookahead panel; the prologue
            // panel (grp = 0) predates every iteration and is never offered to
            // the hook — matching the stepped drivers.
            let attempt = if grp > 0 {
                lu_panel_attempt(&mut tile, grp - 1, j0, hook)
            } else {
                Some(factor_panel_tile(&mut tile, j0))
            };
            let outcome = match attempt {
                Some(Ok(pv)) => {
                    if grp + 1 < g {
                        let nb = tile.width();
                        let l11 = tile.extract(j0, j0 + nb).unit_lower_triangular();
                        let l21 = tile.extract(j0 + nb, n);
                        let mut l21p = PackedA::default();
                        repack_a_op(&mut l21p, &l21, Trans::No, 0, 0, n - j0 - nb, nb);
                        assert!(ops[grp].set(LuPanelOps { l11, l21p }).is_ok());
                    }
                    assert!(swaps[grp].set(pv).is_ok());
                    TaskOutcome::Done
                }
                Some(Err(e)) => {
                    *error.lock().unwrap() = Some(e);
                    failed.store(true, Ordering::Release);
                    TaskOutcome::Done
                }
                // Rolled back by the hook: resubmit the repair attempt without
                // publishing operands or pivots.
                None => TaskOutcome::Retry,
            };
            panel_nanos[grp].fetch_add(task_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            outcome
        } else {
            let sw = swaps[p].get().expect("Panel(p) publishes before its consumers");
            let outcome = if p < grp {
                let op = ops[p].get().expect("Panel(p) publishes before its consumers");
                match lu_update_tile(&mut tile, p, j0, width_of(p), sw, &op.l11, &op.l21p, hook) {
                    TileVerdict::Recompute => TaskOutcome::Retry,
                    TileVerdict::Accept => TaskOutcome::Done,
                }
            } else {
                tile.apply_row_swaps(j0, sw);
                TaskOutcome::Done
            };
            update_nanos[p].fetch_add(task_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            outcome
        }
    });
    drop(tiles);
    if let Some(e) = error.into_inner().unwrap() {
        return Err(e);
    }
    let mut pivots = Vec::with_capacity(n);
    for slot in swaps {
        pivots.extend(slot.into_inner().expect("every panel factored"));
    }
    let timing = DagTiming {
        panel_s: panel_nanos.iter().map(|x| x.load(Ordering::Relaxed) as f64 * 1e-9).collect(),
        update_s: update_nanos.iter().map(|x| x.load(Ordering::Relaxed) as f64 * 1e-9).collect(),
        wall_s: t0.elapsed().as_secs_f64(),
    };
    Ok((LuFactors { lu, pivots }, timing))
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

    #[test]
    fn tiled_is_bit_identical_to_blocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        for (n, b) in [(1, 1), (5, 2), (16, 8), (33, 8), (64, 16), (40, 64)] {
            let a = random_matrix(&mut rng, n, n);
            let sync = lu_blocked(&a, b).unwrap();
            let tiled = lu_tiled(&a, b).unwrap();
            assert_eq!(sync.pivots, tiled.pivots, "pivots differ n={n} b={b}");
            assert_eq!(sync.lu, tiled.lu, "factors differ n={n} b={b}");
        }
    }

    #[test]
    fn tiled_detects_singularity() {
        let a = Matrix::zeros(6, 6);
        assert!(matches!(lu_tiled(&a, 2), Err(LuError::Singular(0))));
        let a = Matrix::zeros(3, 4);
        assert!(matches!(lu_tiled(&a, 2), Err(LuError::NotSquare)));
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
