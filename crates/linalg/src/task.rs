//! Tile-column task machinery for the task-parallel factorization drivers.
//!
//! Every driver but `*_blocked` (the stepped `lu::LuTiledStepper` and the whole-run
//! `cholesky::cholesky_dag_with`, …) runs each iteration's trailing update as
//! **per-tile-column tasks**: the columns are partitioned into `block`-wide groups,
//! every group's iteration-`k` update becomes one task on the rayon pool, and panel
//! `k + 1` factorizes in its own group as soon as that group's update is done,
//! concurrently with the rest of trailing update `k` (the PLASMA/StarPU-style DAG
//! view of the blocked algorithms; see [`crate::dag`]).
//!
//! Disjointness is proved by the borrow checker rather than asserted at runtime: a
//! column-major [`Matrix<E>`] splits into per-column `&mut [E]` slices
//! ([`Matrix::columns_mut`]), the crate-internal `split_tiles_at` partitions those
//! into `TileCols` groups, and each task owns exactly one group while it runs. Shared
//! operands (the panel's `L11`/`L21`/`A21`/`V`/`T` blocks) are copied or packed out
//! by the panel task and published before any consumer runs, so tasks only read
//! immutable operands besides their own columns.
//!
//! [`TrailingHook`] is the fusion point for ABFT: `bsr-abft` implements it to encode
//! and verify checksums of each tile right inside the task that produced it, so
//! checksum maintenance rides the parallel schedule instead of a serial epilogue.
//! Everything here — the hook, the tile groups, the helpers — is written once over
//! the [`Element`] parameter; the element type is the only thing that distinguishes
//! an f64 run from the mixed-precision path's f32 run.

use crate::elem::Element;
use crate::matrix::Matrix;

/// Measured wall-clock durations of one stepped iteration (see the `*TiledStepper`
/// types in [`crate::lu`], [`crate::cholesky`] and [`crate::qr`]).
///
/// `panel_s` is measured *inside* the lookahead panel task, so it overlaps `update_s`
/// (the panel factorization rides the iteration's graph, it does not extend it): a
/// two-stream timeline should place `panel_s` on the CPU stream concurrently with
/// `update_s` on the accelerator stream, exactly the hybrid model of the paper's
/// Figure 1b.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTiming {
    /// Duration of the lookahead panel factorization (panel `k + 1`), measured on
    /// whichever pool thread ran it. Zero when the iteration has no next panel.
    pub panel_s: f64,
    /// Wall-clock duration of the iteration's whole task graph, including the
    /// lookahead panel and any fused [`TrailingHook`] work. Zero when the iteration
    /// has no task.
    pub update_s: f64,
}

/// What a [`TrailingHook`] asks the driver to do with the tile it just inspected.
///
/// `Accept` keeps the tile (possibly corrected in place) and lets the schedule
/// advance; `Recompute` tells the driver the tile's contents are untrustworthy and
/// must be rolled back to their pre-task state and the task re-run. A driver only
/// honors `Recompute` when the hook opted into snapshots via
/// [`TrailingHook::wants_snapshots`]; otherwise the verdict degrades to `Accept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileVerdict {
    /// Keep the tile as-is and release its successors.
    Accept,
    /// Roll the tile back to its pre-task contents and run the task again.
    Recompute,
}

/// Observer fused into every trailing-update tile task of the factorization graphs,
/// at whichever [`Element`] type the driver factors in (`TrailingHook` alone means
/// `TrailingHook<f64>`).
///
/// `after_tile_update` is called once per (iteration, tile column, attempt) triple,
/// from whichever pool thread ran the task, **after** the tile's numeric update and
/// (for the lookahead tile) **before** the next panel is factored from it — a
/// checksum hook runs over the exact data the panel factorization is about to
/// consume. When the hook returns [`TileVerdict::Recompute`] (and opted into
/// snapshots), the driver restores the tile and re-runs the task, so the hook sees
/// the same site again as a fresh attempt.
///
/// `cols[jj]` is the mutable row range `[row0, rows)` of global column `col0 + jj`;
/// implementations may correct elements in place but must confine themselves to the
/// given slices (other regions of the matrix are concurrently owned by other tasks).
pub trait TrailingHook<E: Element = f64>: Sync {
    /// Inspect (and possibly correct) one updated tile column group.
    fn after_tile_update(
        &self,
        iter: usize,
        col0: usize,
        row0: usize,
        cols: &mut [&mut [E]],
    ) -> TileVerdict;

    /// Inspect a freshly factored lookahead panel (panel `iter + 1`, whose first
    /// column is `col0`). `cols[jj]` is the row range `[row0, rows)` of panel column
    /// `col0 + jj`. Returning [`TileVerdict::Recompute`] makes the driver restore
    /// the panel's pre-factorization contents and factor it again. The prologue
    /// panel (panel 0) is factored before any iteration runs and is never offered
    /// to the hook.
    fn after_panel_factor(
        &self,
        _iter: usize,
        _col0: usize,
        _row0: usize,
        _cols: &mut [&mut [E]],
    ) -> TileVerdict {
        TileVerdict::Accept
    }

    /// Whether the driver must snapshot each tile/panel before running its task so
    /// a [`TileVerdict::Recompute`] can be honored. Defaults to `false`: plain runs
    /// pay zero rollback overhead.
    fn wants_snapshots(&self) -> bool {
        false
    }
}

/// The no-op hook: the plain drivers run with `&()`.
impl<E: Element> TrailingHook<E> for () {
    fn after_tile_update(&self, _: usize, _: usize, _: usize, _: &mut [&mut [E]]) -> TileVerdict {
        TileVerdict::Accept
    }
}

/// One tile-column group: `cols[jj]` is the full backing slice (all rows) of global
/// column `col0 + jj`. Owned by exactly one task at a time.
pub(crate) struct TileCols<'a, E: Element = f64> {
    /// Global index of the first column in the group.
    pub col0: usize,
    /// Full-height column slices, disjoint borrows of the matrix storage.
    pub cols: Vec<&'a mut [E]>,
}

impl<E: Element> TileCols<'_, E> {
    /// Number of columns in the group.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows of the underlying matrix.
    pub fn rows(&self) -> usize {
        self.cols[0].len()
    }

    /// Dense copy of rows `[row0, row1)` of the group (the small per-task workspace
    /// the Matrix-based panel kernels run on). Assembled in a single write pass — no
    /// zero-fill — since these copies sit on the per-tile hot path.
    pub fn extract(&self, row0: usize, row1: usize) -> Matrix<E> {
        extract_cols(&self.cols, row0, row1)
    }

    /// Apply a batch of deferred row interchanges (LAPACK `dlaswp`) to the group:
    /// for each `i`, swap row `row0 + i` with row `swaps[i]`.
    pub fn apply_row_swaps(&mut self, row0: usize, swaps: &[usize]) {
        apply_row_swaps_cols(&mut self.cols, row0, swaps);
    }

    /// Reborrow the group's columns restricted to rows `[row0, rows)` — the shape the
    /// GEMM accumulation ([`crate::blas3::gemm_acc_cols`]) and [`TrailingHook`] take.
    pub fn rows_from(&mut self, row0: usize) -> Vec<&mut [E]> {
        self.cols.iter_mut().map(|c| &mut c[row0..]).collect()
    }
}

/// Copy of rows `[row0, rows)` of the first `width` columns of a column-slice set —
/// the rollback state a driver records before running a task whose
/// [`TrailingHook`] may return [`TileVerdict::Recompute`].
pub(crate) fn snapshot_rows<E: Element>(
    cols: &[&mut [E]],
    row0: usize,
    width: usize,
) -> Vec<Vec<E>> {
    cols[..width].iter().map(|c| c[row0..].to_vec()).collect()
}

/// Restore a [`snapshot_rows`] copy, reverting every element the task (and any
/// injected fault) touched.
pub(crate) fn restore_rows<E: Element>(cols: &mut [&mut [E]], row0: usize, snap: &[Vec<E>]) {
    for (col, saved) in cols.iter_mut().zip(snap) {
        col[row0..].copy_from_slice(saved);
    }
}

/// One lookahead-panel attempt on the panel held in `tile` (diagonal row
/// `tile.col0`): snapshot its rows when the hook may demand a rollback, `factor` it in
/// place, then offer it to the hook as iteration `iter`'s lookahead panel. `None` when
/// the hook rolled the attempt back: the rows are restored, so the retry refactors
/// from the identical state.
pub(crate) fn panel_attempt<'a, E: Element, R, X>(
    tile: &mut TileCols<'a, E>,
    iter: usize,
    hook: &dyn TrailingHook<E>,
    factor: impl FnOnce(&mut TileCols<'a, E>) -> Result<R, X>,
) -> Option<Result<R, X>> {
    let row0 = tile.col0;
    let snap = hook.wants_snapshots().then(|| snapshot_rows(&tile.cols, row0, tile.width()));
    let factored = factor(tile);
    if factored.is_ok()
        && hook.after_panel_factor(iter, row0, row0, &mut tile.rows_from(row0))
            == TileVerdict::Recompute
    {
        if let Some(snap) = &snap {
            restore_rows(&mut tile.cols, row0, snap);
            return None;
        }
    }
    Some(factored)
}

/// Batch row interchanges (LAPACK `dlaswp`) over a set of column slices: for each
/// `i`, swap row `row0 + i` with row `swaps[i]` in every column. Shared by the tile
/// tasks and LU's deferred left-column swap task.
pub(crate) fn apply_row_swaps_cols<E: Element>(cols: &mut [&mut [E]], row0: usize, swaps: &[usize]) {
    for col in cols.iter_mut() {
        for (i, &piv) in swaps.iter().enumerate() {
            if piv != row0 + i {
                col.swap(row0 + i, piv);
            }
        }
    }
}

/// Dense copy of rows `[row0, row1)` of a set of column slices, assembled in one
/// write pass (no zero-fill).
pub(crate) fn extract_cols<E: Element>(cols: &[&mut [E]], row0: usize, row1: usize) -> Matrix<E> {
    let mut data = Vec::with_capacity((row1 - row0) * cols.len());
    for col in cols.iter() {
        data.extend_from_slice(&col[row0..row1]);
    }
    Matrix::from_column_major(row1 - row0, cols.len(), data)
}

/// Borrow two distinct columns of a column-slice set at once, the earlier read-only
/// and the later mutably — the aliasing split the slice-native panel kernels need
/// (mirrors [`Matrix::col_pair_mut`]).
pub(crate) fn col_pair<'a, E: Element>(
    cols: &'a mut [&mut [E]],
    jr: usize,
    jw: usize,
) -> (&'a [E], &'a mut [E]) {
    assert!(jr < jw && jw < cols.len(), "col_pair: need jr < jw < cols");
    let (left, right) = cols.split_at_mut(jw);
    (&*left[jr], &mut *right[0])
}

/// Partition **all** columns of `a` into [`TileCols`] groups at a fixed, sorted
/// boundary list: group `g` spans columns `[bounds[g], bounds[g + 1])` (the last
/// group ends at `a.cols()`). The task graphs ([`crate::dag`]) use one whole-matrix
/// partition for the entire factorization — the same groups serve as panel tiles and
/// trailing tiles across every iteration, which is what lets a group carry a single
/// dependency chain instead of being re-split per iteration.
pub(crate) fn split_tiles_at<'a, E: Element>(
    a: &'a mut Matrix<E>,
    bounds: &[usize],
) -> Vec<TileCols<'a, E>> {
    let n = a.cols();
    debug_assert!(bounds.first().copied().unwrap_or(0) == 0 || n == 0);
    debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(bounds.last().copied().unwrap_or(0) <= n);
    let mut rest = a.columns_mut();
    let mut tiles = Vec::with_capacity(bounds.len());
    for (g, &col0) in bounds.iter().enumerate() {
        let end = bounds.get(g + 1).copied().unwrap_or(n);
        let tail = rest.split_off(end - col0);
        tiles.push(TileCols { col0, cols: rest });
        rest = tail;
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_tiles_at_partitions_at_explicit_boundaries() {
        let mut m = Matrix::from_fn(3, 10, |i, j| (i + 10 * j) as f64);
        let mut tiles = split_tiles_at(&mut m, &[0, 4, 6, 9]);
        let spans: Vec<(usize, usize)> = tiles.iter().map(|t| (t.col0, t.width())).collect();
        assert_eq!(spans, vec![(0, 4), (4, 2), (6, 3), (9, 1)]);
        // Mutations land in the right place.
        tiles[2].cols[1][2] = -1.0;
        drop(tiles);
        assert_eq!(m.get(2, 7), -1.0);
    }

    #[test]
    fn extract_col_pair_and_swaps() {
        let mut m = Matrix::from_fn(6, 4, |i, j| (i * 100 + j) as f64);
        let mut tiles = split_tiles_at(&mut m, &[0]);
        let tile = &mut tiles[0];
        let sub = tile.extract(2, 5);
        assert_eq!(sub.rows(), 3);
        assert_eq!(sub.get(0, 1), 201.0);
        let (r, w) = col_pair(&mut tile.cols, 1, 3);
        assert_eq!(r[2], 201.0);
        w[2] = -7.0;
        assert_eq!(tile.cols[3][2], -7.0);
        // dlaswp semantics: swap row 0 with row 5, row 1 stays.
        tile.apply_row_swaps(0, &[5, 1]);
        assert_eq!(tile.cols[1][0], 501.0);
        assert_eq!(tile.cols[1][5], 1.0);
    }
}
