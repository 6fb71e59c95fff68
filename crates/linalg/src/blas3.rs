//! Level-3 BLAS kernels (GEMM, TRSM, SYRK) operating in place on blocks of a [`Matrix`].
//!
//! All three kernels ride the packed, cache-blocked GEMM core in `crate::kernel`:
//! operand panels are packed into contiguous zero-padded buffers (no `Matrix::get` or
//! transpose indirection in the hot loops), tiled `NC × KC × MC` to fit L1/L2, and
//! executed by an `MR × 8` register micro-kernel (`8 × 8` f64, `16 × 8` f32; AVX-512F or
//! AVX2+FMA when available, with full paired tiles added into `C` from registers). TRSM is
//! blocked along the triangular diagonal so everything outside the small diagonal
//! solves is expressed as GEMM; SYRK shares the core with a lower-triangle mask.
//!
//! Parallelism: the output block is split into column strips (every column is a
//! disjoint slice of the column-major backing vector, so the split needs no `unsafe`)
//! and the strips are fanned out over the vendored rayon pool — persistent parked
//! workers, so a region costs microseconds to enter. One shared heuristic,
//! `parallel_degree`, decides when a problem is big enough to amortize that dispatch
//! cost; tiny per-panel updates of the blocked factorizations stay sequential. The
//! tiled task drivers additionally enter through [`gemm_acc_cols`], which accumulates
//! into caller-owned column slices so each tile task's disjointness is a borrow-checker
//! fact.

use crate::elem::Element;
use crate::kernel;
use crate::matrix::{Block, Matrix};
use crate::subst;
use rayon::prelude::*;

pub(crate) use crate::kernel::{Operand, PackedA};

pub use crate::kernel::simd_backend;

/// Transposition selector for GEMM operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Which side a triangular operand appears on in TRSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(A) * X = B`.
    Left,
    /// Solve `X * op(A) = B`.
    Right,
}

/// Triangular structure selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpLo {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the triangular matrix has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal elements are taken from the matrix.
    NonUnit,
    /// Diagonal elements are assumed to be one.
    Unit,
}

/// Order of the diagonal blocks in the blocked TRSM algorithms; everything outside the
/// diagonal solve is routed through the packed GEMM core.
const TRSM_NB: usize = 64;

/// Shared work-size heuristic of the level-3 kernels: given the multiply-add count of
/// an operation, return how many worker threads its output should be split across.
///
/// The vendored rayon pool keeps its workers parked between regions, so entering a
/// parallel region costs single-digit microseconds (the repo benchmark records it as
/// `pool.dispatch_us`). A region therefore pays off once it carries work an order of
/// magnitude above the dispatch cost: the crossover is the compiled
/// [`KernelParams::par_madds`](crate::tune::KernelParams::par_madds)
/// (`64 · 64 · 64 ≈ 262 k` madds ≈ 0.5 MFLOP, ~50 µs at 10 GFLOP/s) — small
/// per-tile-column GEMM tasks of the tiled factorizations split when the host has idle
/// workers. Below it the caller gets `1` and stays on the calling thread.
/// Nested regions stay sequential: inside a pool task (a tile task of the tiled
/// factorizations) the task graph above already saturates the workers, so an inner
/// split would only add dispatch traffic and queue churn.
fn parallel_degree<E: Element>(madds: usize) -> usize {
    if madds >= crate::tune::params::<E>().par_madds && !rayon::in_pool_task() {
        rayon::current_num_threads()
    } else {
        1
    }
}

#[inline]
fn op_dims<E: Element>(a: &Matrix<E>, trans: Trans) -> (usize, usize) {
    Operand::whole(a, trans).op_dims()
}

#[inline]
fn op_get<E: Element>(a: &Matrix<E>, trans: Trans, i: usize, j: usize) -> E {
    match trans {
        Trans::No => a.get(i, j),
        Trans::Yes => a.get(j, i),
    }
}

/// Apply BLAS `beta`/`alpha` scaling semantics to an output block: a factor of exactly
/// `0` **overwrites** the block with zeros (stale or uninitialized contents — including
/// NaN/Inf — must not propagate), `1` is a no-op, anything else scales in place.
fn scale_block<E: Element>(c: &mut Matrix<E>, cb: Block, factor: f64) {
    if factor == 1.0 {
        return;
    }
    let fe = E::from_f64(factor);
    for (_, col) in c.cols_range_mut(cb) {
        if factor == 0.0 {
            col.fill(E::ZERO);
        } else {
            for v in col.iter_mut() {
                *v *= fe;
            }
        }
    }
}

/// [`scale_block`] restricted to the lower triangle of a square block (SYRK touches
/// nothing above the diagonal).
fn scale_block_lower<E: Element>(c: &mut Matrix<E>, cb: Block, factor: f64) {
    if factor == 1.0 {
        return;
    }
    let fe = E::from_f64(factor);
    let col0 = cb.col;
    for (j, col) in c.cols_range_mut(cb) {
        let lower = &mut col[j - col0..];
        if factor == 0.0 {
            lower.fill(E::ZERO);
        } else {
            for v in lower.iter_mut() {
                *v *= fe;
            }
        }
    }
}

/// Split the block `cb` of `c` into per-column mutable row slices (`out[jj][i]` is
/// element `(cb.row + i, cb.col + jj)`) and hand them to `f`. Columns are disjoint
/// slices of the column-major backing vector, so the strips the callers fan out over
/// threads are independent borrows.
pub(crate) fn with_block_cols<E: Element, R>(
    c: &mut Matrix<E>,
    cb: Block,
    f: impl FnOnce(&mut [&mut [E]]) -> R,
) -> R {
    let mut cols: Vec<&mut [E]> = c.cols_range_mut(cb).map(|(_, s)| s).collect();
    f(&mut cols)
}

/// General matrix-matrix multiply into a block of `c`:
/// `C[cb] = alpha * op(A) * op(B) + beta * C[cb]`.
///
/// `op(A)` must be `cb.rows × k` and `op(B)` must be `k × cb.cols`. Per BLAS semantics
/// `beta == 0` overwrites the block (it is never read), so `c` may hold stale or
/// non-finite data there.
#[allow(clippy::too_many_arguments)] // BLAS-style signature, kept for familiarity
pub fn gemm_into_block<E: Element>(
    alpha: f64,
    a: &Matrix<E>,
    transa: Trans,
    b: &Matrix<E>,
    transb: Trans,
    beta: f64,
    c: &mut Matrix<E>,
    cb: Block,
) {
    let (am, ak) = op_dims(a, transa);
    let (bk, bn) = op_dims(b, transb);
    assert_eq!(ak, bk, "gemm: inner dimensions differ ({ak} vs {bk})");
    assert_eq!(am, cb.rows, "gemm: output rows mismatch");
    assert_eq!(bn, cb.cols, "gemm: output cols mismatch");
    gemm_block(alpha, Operand::whole(a, transa), Operand::whole(b, transb), ak, beta, c, cb, false);
}

/// GEMM on operand *views*: `C[cb] = alpha · A · B + beta · C[cb]` with `A` the
/// `cb.rows × k` block at the origin of `a` and `B` the `k × cb.cols` block at the
/// origin of `b`. With `mask_lower` (`cb` square) only the lower triangle of the block
/// is scaled, computed and written. `beta == 0` overwrites (BLAS semantics).
///
/// This is the one place a block update is fanned out over the pool: the block is cut
/// into column strips, and per-element summation order depends only on `k`, so the
/// result is bit-identical at every thread count. [`gemm_into_block`] and
/// [`syrk_lower_into_block`] are its whole-operand forms; the structured residual
/// sweeps of [`crate::verify`] and the compact-WY application of [`crate::qr`] enter
/// here directly, multiplying sub-blocks of the factor storage in place.
#[allow(clippy::too_many_arguments)] // BLAS-style signature over operand views
pub(crate) fn gemm_block<E: Element>(
    alpha: f64,
    a: Operand<'_, E>,
    b: Operand<'_, E>,
    k: usize,
    beta: f64,
    c: &mut Matrix<E>,
    cb: Block,
    mask_lower: bool,
) {
    let (am, ak) = a.op_dims();
    let (bk, bn) = b.op_dims();
    assert!(
        a.row0 + cb.rows <= am && a.col0 + k <= ak,
        "gemm_block: A view out of bounds"
    );
    assert!(
        b.row0 + k <= bk && b.col0 + cb.cols <= bn,
        "gemm_block: B view out of bounds"
    );
    assert!(
        cb.row + cb.rows <= c.rows() && cb.col + cb.cols <= c.cols(),
        "gemm_block: output block out of bounds"
    );
    assert!(!mask_lower || cb.rows == cb.cols, "gemm_block: masked block must be square");
    if cb.is_empty() {
        return;
    }
    if mask_lower {
        scale_block_lower(c, cb, beta);
    } else {
        scale_block(c, cb, beta);
    }
    if alpha == 0.0 || k == 0 {
        return;
    }
    let madds = cb.rows * cb.cols * k;
    // Masked strips carry triangular (uneven) work; oversplit so the pool's shared
    // queue can balance them dynamically.
    let threads = parallel_degree::<E>(if mask_lower { madds / 2 } else { madds });
    let strips = if mask_lower && threads > 1 { threads * 4 } else { threads };
    let strip = cb.cols.div_ceil(strips).next_multiple_of(E::NR);
    let alpha_e = E::from_f64(alpha);
    with_block_cols(c, cb, |cols| {
        cols.par_chunks_mut(strip).enumerate().for_each(|(s, strip_cols)| {
            kernel::gemm_strip(alpha_e, a, b, cb.rows, k, s * strip, strip_cols, mask_lower);
        });
    });
}

/// Accumulate `alpha · op(A)[a_row0.., :] · op(B)[:, b_col0..]` into an explicit set
/// of output column slices: `cols[jj][i] += alpha · (op(A) op(B))[a_row0 + i, b_col0 + jj]`.
///
/// The effective `op(A)` block is `cols[jj].len() × k` starting at op-row `a_row0`;
/// the effective `op(B)` columns are `cols.len()` wide starting at op-column `b_col0`
/// — the origins let a tile task multiply against a sub-block of a shared operand
/// without materializing a copy (the packed core reads the sub-block directly). With
/// `mask_lower`, only elements with `i >= jj` (block-local) are computed and written:
/// the per-tile SYRK path of the tiled Cholesky, where the strictly-upper part of the
/// slices is never read or written.
///
/// This is the level-3 entry point of the task-parallel factorization drivers: each
/// tile task owns the backing slices of its own columns, so disjointness between
/// concurrent tasks is proved by the borrow checker, not asserted at runtime. The
/// accumulation is bit-identical to the same columns updated through
/// [`gemm_into_block`] with `beta = 1` — per-element summation order depends only on
/// the `k` dimension, not on how the output columns are partitioned.
#[allow(clippy::too_many_arguments)] // BLAS-style signature with sub-block origins
pub fn gemm_acc_cols<E: Element>(
    alpha: f64,
    a: &Matrix<E>,
    transa: Trans,
    a_row0: usize,
    b: &Matrix<E>,
    transb: Trans,
    b_col0: usize,
    cols: &mut [&mut [E]],
    mask_lower: bool,
) {
    if cols.is_empty() {
        return;
    }
    let (am, ak) = op_dims(a, transa);
    let (bk, bn) = op_dims(b, transb);
    let m = cols[0].len();
    assert_eq!(ak, bk, "gemm_acc_cols: inner dimensions differ ({ak} vs {bk})");
    assert!(
        a_row0 + m <= am,
        "gemm_acc_cols: op(A) row range out of bounds"
    );
    assert!(
        b_col0 + cols.len() <= bn,
        "gemm_acc_cols: op(B) column range out of bounds"
    );
    assert!(
        cols.iter().all(|c| c.len() == m),
        "gemm_acc_cols: output rows mismatch"
    );
    if m == 0 {
        return;
    }
    kernel::gemm_strip(
        E::from_f64(alpha),
        Operand::at(a, transa, a_row0, 0),
        Operand::at(b, transb, 0, b_col0),
        m,
        ak,
        0,
        cols,
        mask_lower,
    );
}

/// (Re)pack the `m × k` block of `op(A)` at op-origin `(oi0, ok0)` into a
/// driver-owned [`PackedA`] scratch, for sharing across the tile tasks of one
/// iteration (the buffer is reused between iterations).
#[allow(clippy::too_many_arguments)] // BLAS-style plumbing
pub(crate) fn repack_a_op<E: Element>(
    pa: &mut PackedA<E>,
    a: &Matrix<E>,
    transa: Trans,
    oi0: usize,
    ok0: usize,
    m: usize,
    k: usize,
) {
    let (am, ak) = op_dims(a, transa);
    assert!(oi0 + m <= am && ok0 + k <= ak, "repack_a_op: block out of bounds");
    pa.repack(a, transa, oi0, ok0, m, k);
}

/// [`gemm_acc_cols`] against a pre-packed `op(A)`: `cols[jj][i] += alpha ·
/// (op(A)·op(B))[a_row0 + i, b_col0 + jj]` where `op(A)` was packed once with
/// [`repack_a_op`]. `a_row0` must be `MR`-aligned (the drivers fall back to
/// [`gemm_acc_cols`] otherwise); results are bit-identical to the unpacked path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_acc_cols_prepacked<E: Element>(
    alpha: f64,
    pa: &PackedA<E>,
    a_row0: usize,
    b: &Matrix<E>,
    transb: Trans,
    b_col0: usize,
    cols: &mut [&mut [E]],
    mask_lower: bool,
) {
    if cols.is_empty() {
        return;
    }
    let (bk, bn) = op_dims(b, transb);
    let m = cols[0].len();
    assert!(
        b_col0 + cols.len() <= bn,
        "gemm_acc_cols_prepacked: op(B) column range out of bounds"
    );
    assert!(
        cols.iter().all(|c| c.len() == m),
        "gemm_acc_cols_prepacked: output rows mismatch"
    );
    if m == 0 {
        return;
    }
    kernel::gemm_strip_prepacked(
        E::from_f64(alpha),
        pa,
        a_row0,
        b,
        transb,
        b_col0,
        m,
        bk,
        0,
        cols,
        mask_lower,
    );
}

/// In-place unit-lower-triangular left solve on tile column slices:
/// `X ← L⁻¹ X` where `X` is rows `[row0, row0 + n)` of every column in `cols` and `l`
/// is the `n × n` unit-lower-triangular operand.
///
/// Replicates [`trsm_into_block`]`(Left, Lower, No, Unit)` operation for operation —
/// the same `TRSM_NB` diagonal substitutions (the same left-side kernel) and the same
/// rank-`TRSM_NB` GEMM eliminations — so the result is bit-identical while the tile
/// task solves directly in its own columns instead of round-tripping through an
/// extracted copy.
pub(crate) fn trsm_unit_lower_cols<E: Element>(l: &Matrix<E>, row0: usize, cols: &mut [&mut [E]]) {
    assert!(l.is_square(), "trsm_unit_lower_cols: L must be square");
    let n = l.rows();
    if cols.is_empty() || n == 0 {
        return;
    }
    let mut d0 = 0;
    while d0 < n {
        let ndb = TRSM_NB.min(n - d0);
        let d1 = d0 + ndb;
        // Substitution on rows [row0 + d0, row0 + d1) of every column (unit diagonal).
        let sys = left_diag_system(l, Trans::No, UpLo::Lower, Diag::Unit, d0, ndb);
        subst::solve_left_cols(&sys, cols, row0 + d0);
        if d1 < n {
            // Eliminate the solved rows from the rows below through the packed GEMM,
            // exactly as the blocked TRSM does (same operand values, same summation);
            // the `L` block is packed from `l` in place.
            let xsol = crate::task::extract_cols(cols, row0 + d0, row0 + d1);
            let mut sub: Vec<&mut [E]> = cols
                .iter_mut()
                .map(|c| &mut c[row0 + d1..row0 + n])
                .collect();
            kernel::gemm_strip(
                E::from_f64(-1.0),
                Operand::at(l, Trans::No, d1, d0),
                Operand::whole(&xsol, Trans::No),
                n - d1,
                ndb,
                0,
                &mut sub,
                false,
            );
        }
        d0 = d1;
    }
}

/// In-place right solve `X ← X · L⁻ᵀ` on tile column slices, where `X` is rows
/// `[row0, len)` of every column in `cols` and `l` is the `cols.len() × cols.len()`
/// lower-triangular (non-unit) operand.
///
/// Replicates [`trsm_into_block`]`(Right, Lower, Yes, NonUnit)` — effective-upper
/// forward sweep: per `TRSM_NB` diagonal block a column-coupled substitution (the same
/// right-side kernel), then one packed GEMM eliminating the solved columns from the
/// later ones — so the result is bit-identical while the tiled Cholesky panel solves
/// directly in its own columns.
pub(crate) fn trsm_right_lower_trans_cols<E: Element>(
    l: &Matrix<E>,
    row0: usize,
    cols: &mut [&mut [E]],
) {
    assert!(l.is_square(), "trsm_right_lower_trans_cols: L must be square");
    let n = l.rows();
    assert_eq!(n, cols.len(), "trsm_right_lower_trans_cols: order mismatch");
    if n == 0 {
        return;
    }
    let nrows = cols[0].len();
    if row0 >= nrows {
        return;
    }
    let mut d0 = 0;
    while d0 < n {
        let ndb = TRSM_NB.min(n - d0);
        let d1 = d0 + ndb;
        // Column-coupled substitution within the diagonal block (op(A) = Lᵀ is upper:
        // column j depends on columns l < j).
        let sys = right_diag_system(l, Trans::Yes, UpLo::Upper, Diag::NonUnit, d0, ndb);
        let mut block: Vec<&mut [E]> = cols[d0..d1].iter_mut().map(|c| &mut c[row0..]).collect();
        crate::elem::solve_lanes(&sys, &mut block);
        if d1 < n {
            // Eliminate the solved columns from the later ones through the packed
            // GEMM, with the same operand values as the blocked TRSM; the `Lᵀ` block
            // is packed from `l` in place.
            let xsol = crate::task::extract_cols(&cols[d0..d1], row0, nrows);
            let mut sub: Vec<&mut [E]> =
                cols[d1..n].iter_mut().map(|c| &mut c[row0..]).collect();
            kernel::gemm_strip(
                E::from_f64(-1.0),
                Operand::whole(&xsol, Trans::No),
                Operand::at(l, Trans::Yes, d0, d1),
                nrows - row0,
                ndb,
                0,
                &mut sub,
                false,
            );
        }
        d0 = d1;
    }
}

/// Convenience wrapper multiplying whole matrices into a fresh output:
/// returns `op(A) * op(B)`.
pub fn gemm<E: Element>(
    a: &Matrix<E>,
    transa: Trans,
    b: &Matrix<E>,
    transb: Trans,
) -> Matrix<E> {
    let (m, _) = op_dims(a, transa);
    let (_, n) = op_dims(b, transb);
    let mut c = Matrix::zeros(m, n);
    gemm_into_block(1.0, a, transa, b, transb, 0.0, &mut c, Block::full(m, n));
    c
}

/// Matrix-vector product `op(A) · x`: the single-column case the packed GEMM core
/// handles badly — packing `op(A)` costs as much memory traffic as the whole product
/// and cannot amortize over one output column, so this streams the operand directly.
/// Column-major storage makes the no-trans case an axpy over contiguous columns and
/// the trans case one contiguous dot per output element. The mixed-precision
/// refinement loop computes exactly one of these per sweep.
pub fn gemv<E: Element>(a: &Matrix<E>, transa: Trans, x: &Matrix<E>) -> Matrix<E> {
    let (m, k) = op_dims(a, transa);
    assert_eq!(x.rows(), k, "gemv: dimension mismatch ({k} vs {})", x.rows());
    assert_eq!(x.cols(), 1, "gemv: x must be a single column");
    let mut y = Matrix::zeros(m, 1);
    let xd = x.data();
    let ad = a.data();
    let yd = y.data_mut();
    match transa {
        Trans::No => {
            for (l, &xl) in xd.iter().enumerate() {
                if xl != E::ZERO {
                    let col = &ad[l * m..][..m];
                    for (yi, &ail) in yd.iter_mut().zip(col) {
                        *yi += ail * xl;
                    }
                }
            }
        }
        Trans::Yes => {
            for (i, yi) in yd.iter_mut().enumerate() {
                let col = &ad[i * k..][..k];
                let mut s = E::ZERO;
                for (&ali, &xl) in col.iter().zip(xd) {
                    s += ali * xl;
                }
                *yi = s;
            }
        }
    }
    y
}

/// Triangular solve with multiple right-hand sides, in place on a block of `b`:
///
/// * `Side::Left`:  `op(A) * X = alpha * B[bb]`, X overwrites `B[bb]`.
/// * `Side::Right`: `X * op(A) = alpha * B[bb]`, X overwrites `B[bb]`.
///
/// `A` must be a square triangular matrix of the appropriate order. The solve is
/// blocked along the diagonal in `TRSM_NB` = 64 steps: only the small diagonal systems
/// are solved by substitution (the runtime-dispatched kernels of `crate::subst`), the
/// remaining rank-`TRSM_NB` updates go through the packed (and, for large problems,
/// multithreaded) GEMM core, which reads `op(A)` in place.
#[allow(clippy::too_many_arguments)]
pub fn trsm_into_block<E: Element>(
    side: Side,
    uplo: UpLo,
    transa: Trans,
    diag: Diag,
    alpha: f64,
    a: &Matrix<E>,
    b: &mut Matrix<E>,
    bb: Block,
) {
    assert!(a.is_square(), "trsm: A must be square");
    let n = a.rows();
    match side {
        Side::Left => assert_eq!(n, bb.rows, "trsm(Left): order of A must equal block rows"),
        Side::Right => assert_eq!(n, bb.cols, "trsm(Right): order of A must equal block cols"),
    }
    assert!(
        bb.row + bb.rows <= b.rows() && bb.col + bb.cols <= b.cols(),
        "trsm: block out of bounds"
    );
    if bb.is_empty() {
        return;
    }

    // alpha scales the right-hand side exactly once, up front; alpha == 0 zeroes it and
    // the solution of op(A) X = 0 is X = 0, so the solve can stop there.
    scale_block(b, bb, alpha);
    if alpha == 0.0 {
        return;
    }

    // Effective access to op(A): a lower-triangular A accessed transposed behaves as
    // upper-triangular and vice versa.
    let eff_uplo = match (uplo, transa) {
        (UpLo::Lower, Trans::No) | (UpLo::Upper, Trans::Yes) => UpLo::Lower,
        _ => UpLo::Upper,
    };

    match (side, eff_uplo) {
        (Side::Left, UpLo::Lower) => {
            // Forward: solve rows [d0, d1), then eliminate them from the rows below.
            let mut d0 = 0;
            while d0 < n {
                let nb = TRSM_NB.min(n - d0);
                solve_left_diag(a, transa, eff_uplo, diag, d0, nb, b, bb);
                let d1 = d0 + nb;
                if d1 < n {
                    let xsol = b.copy_block(Block::new(bb.row + d0, bb.col, nb, bb.cols));
                    gemm_block(
                        -1.0,
                        Operand::at(a, transa, d1, d0),
                        Operand::whole(&xsol, Trans::No),
                        nb,
                        1.0,
                        b,
                        Block::new(bb.row + d1, bb.col, n - d1, bb.cols),
                        false,
                    );
                }
                d0 = d1;
            }
        }
        (Side::Left, UpLo::Upper) => {
            // Backward: solve rows [d0, d1), then eliminate them from the rows above.
            let mut d1 = n;
            while d1 > 0 {
                let nb = TRSM_NB.min(d1);
                let d0 = d1 - nb;
                solve_left_diag(a, transa, eff_uplo, diag, d0, nb, b, bb);
                if d0 > 0 {
                    let xsol = b.copy_block(Block::new(bb.row + d0, bb.col, nb, bb.cols));
                    gemm_block(
                        -1.0,
                        Operand::at(a, transa, 0, d0),
                        Operand::whole(&xsol, Trans::No),
                        nb,
                        1.0,
                        b,
                        Block::new(bb.row, bb.col, d0, bb.cols),
                        false,
                    );
                }
                d1 = d0;
            }
        }
        (Side::Right, UpLo::Lower) => {
            // op(A) lower couples column j to columns l > j: solve the highest block
            // first, then eliminate it from all earlier columns in one GEMM.
            let mut d1 = n;
            while d1 > 0 {
                let nb = TRSM_NB.min(d1);
                let d0 = d1 - nb;
                solve_right_diag(a, transa, eff_uplo, diag, d0, nb, b, bb);
                if d0 > 0 {
                    let xsol = b.copy_block(Block::new(bb.row, bb.col + d0, bb.rows, nb));
                    gemm_block(
                        -1.0,
                        Operand::whole(&xsol, Trans::No),
                        Operand::at(a, transa, d0, 0),
                        nb,
                        1.0,
                        b,
                        Block::new(bb.row, bb.col, bb.rows, d0),
                        false,
                    );
                }
                d1 = d0;
            }
        }
        (Side::Right, UpLo::Upper) => {
            // op(A) upper couples column j to columns l < j: solve the lowest block
            // first, then eliminate it from all later columns in one GEMM.
            let mut d0 = 0;
            while d0 < n {
                let nb = TRSM_NB.min(n - d0);
                solve_right_diag(a, transa, eff_uplo, diag, d0, nb, b, bb);
                let d1 = d0 + nb;
                if d1 < n {
                    let xsol = b.copy_block(Block::new(bb.row, bb.col + d0, bb.rows, nb));
                    gemm_block(
                        -1.0,
                        Operand::whole(&xsol, Trans::No),
                        Operand::at(a, transa, d0, d1),
                        nb,
                        1.0,
                        b,
                        Block::new(bb.row, bb.col + d1, bb.rows, n - d1),
                        false,
                    );
                }
                d0 = d1;
            }
        }
    }
}

/// The `nb × nb` diagonal system at `(d0, d0)` of `op(A)` as a left-side solve sees
/// it: unknown `i` subtracts `op(A)[i, l] · x[l]` over the solved `l` in ascending
/// order (`l < i` for an effective-lower `op(A)`, `l > i`, solved from the last, for
/// an effective-upper one), then divides by `op(A)[i, i]` unless the diagonal is unit.
/// For the lower case this is forward substitution by rows; by columns (`x[i] −=
/// L[i, j] · x[j]` for `j` ascending) every `x[i]` receives the same operations in the
/// same order, so the two are the same bits.
fn left_diag_system<E: Element>(
    a: &Matrix<E>,
    transa: Trans,
    eff_uplo: UpLo,
    diag: Diag,
    d0: usize,
    nb: usize,
) -> subst::Coupling<E> {
    subst::Coupling::new(nb, eff_uplo == UpLo::Upper, diag, false, |i, l| {
        op_get(a, transa, d0 + i, d0 + l)
    })
}

/// The `nb × nb` diagonal system at `(d0, d0)` of `op(A)` as a right-side solve
/// `X' · op(A) = B'` sees it: column `j` subtracts `op(A)[l, j] · X[:, l]` over the
/// solved columns `l` in ascending order (`l < j` for an effective-upper `op(A)`,
/// `l > j`, solved from the last, for an effective-lower one), skipping exact-zero
/// coefficients, then divides by `op(A)[j, j]` unless the diagonal is unit.
fn right_diag_system<E: Element>(
    a: &Matrix<E>,
    transa: Trans,
    eff_uplo: UpLo,
    diag: Diag,
    d0: usize,
    nb: usize,
) -> subst::Coupling<E> {
    subst::Coupling::new(nb, eff_uplo == UpLo::Lower, diag, true, |j, l| {
        op_get(a, transa, d0 + l, d0 + j)
    })
}

/// Substitution solve of the `nb × nb` diagonal system at `(d0, d0)` of `op(A)` against
/// rows `[d0, d0 + nb)` of the right-hand-side block. Right-hand-side columns are
/// independent, so wide blocks are fanned out over the thread pool.
#[allow(clippy::too_many_arguments)]
fn solve_left_diag<E: Element>(
    a: &Matrix<E>,
    transa: Trans,
    eff_uplo: UpLo,
    diag: Diag,
    d0: usize,
    nb: usize,
    b: &mut Matrix<E>,
    bb: Block,
) {
    let bsub = Block::new(bb.row + d0, bb.col, nb, bb.cols);
    let sys = left_diag_system(a, transa, eff_uplo, diag, d0, nb);
    let threads = parallel_degree::<E>(bb.cols * nb * nb);
    let strip = bb.cols.div_ceil(threads);
    with_block_cols(b, bsub, |cols| {
        cols.par_chunks_mut(strip)
            .for_each(|chunk| subst::solve_left_cols(&sys, chunk, 0));
    });
}

/// Solve the `nb`-column diagonal sub-problem `X' · op(A)[d0..d1, d0..d1] = B'` in
/// place on local columns `[d0, d0 + nb)` of the block. Columns inside the sub-problem
/// are coupled, so they are produced sequentially (the bulk inter-block work happens in
/// the caller's GEMM updates).
#[allow(clippy::too_many_arguments)]
fn solve_right_diag<E: Element>(
    a: &Matrix<E>,
    transa: Trans,
    eff_uplo: UpLo,
    diag: Diag,
    d0: usize,
    nb: usize,
    b: &mut Matrix<E>,
    bb: Block,
) {
    let sys = right_diag_system(a, transa, eff_uplo, diag, d0, nb);
    let bsub = Block::new(bb.row, bb.col + d0, bb.rows, nb);
    with_block_cols(b, bsub, |cols| crate::elem::solve_lanes(&sys, cols));
}

/// Symmetric rank-k update of the lower triangle of a block of `c`:
/// `C[cb] = alpha * A * A^T + beta * C[cb]` (only the lower triangle is referenced/updated).
///
/// `A` must have `cb.rows` rows; `cb` must be square. Shares the packed GEMM core with
/// a lower-triangle mask: tiles entirely above the diagonal are skipped and
/// diagonal-crossing tiles mask their write-back, so the strictly-upper triangle is
/// never read or written. `beta == 0` overwrites the lower triangle (BLAS semantics).
pub fn syrk_lower_into_block<E: Element>(
    alpha: f64,
    a: &Matrix<E>,
    beta: f64,
    c: &mut Matrix<E>,
    cb: Block,
) {
    assert_eq!(cb.rows, cb.cols, "syrk: output block must be square");
    assert_eq!(a.rows(), cb.rows, "syrk: A rows must match block order");
    let (an, at) = (Operand::whole(a, Trans::No), Operand::whole(a, Trans::Yes));
    gemm_block(alpha, an, at, a.cols(), beta, c, cb, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive_all_transpose_combinations() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = random_matrix(&mut rng, 7, 5);
        let b = random_matrix(&mut rng, 5, 6);
        let c = gemm(&a, Trans::No, &b, Trans::No);
        assert!(c.approx_eq(&naive_gemm(&a, &b), 1e-12));

        let at = a.transposed();
        let c2 = gemm(&at, Trans::Yes, &b, Trans::No);
        assert!(c2.approx_eq(&naive_gemm(&a, &b), 1e-12));

        let bt = b.transposed();
        let c3 = gemm(&a, Trans::No, &bt, Trans::Yes);
        assert!(c3.approx_eq(&naive_gemm(&a, &b), 1e-12));

        let c4 = gemm(&at, Trans::Yes, &bt, Trans::Yes);
        assert!(c4.approx_eq(&naive_gemm(&a, &b), 1e-12));
    }

    #[test]
    fn gemm_into_block_respects_alpha_beta_and_offsets() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = random_matrix(&mut rng, 3, 4);
        let b = random_matrix(&mut rng, 4, 2);
        let mut c = Matrix::from_fn(5, 5, |i, j| (i + j) as f64);
        let orig = c.clone();
        let cb = Block::new(1, 2, 3, 2);
        gemm_into_block(2.0, &a, Trans::No, &b, Trans::No, 0.5, &mut c, cb);
        let expected_block = {
            let mut e = Matrix::zeros(3, 2);
            let prod = naive_gemm(&a, &b);
            for i in 0..3 {
                for j in 0..2 {
                    e.set(i, j, 2.0 * prod.get(i, j) + 0.5 * orig.get(1 + i, 2 + j));
                }
            }
            e
        };
        assert!(c.copy_block(cb).approx_eq(&expected_block, 1e-12));
        // Outside the block nothing changed.
        assert_eq!(c.get(0, 0), orig.get(0, 0));
        assert_eq!(c.get(4, 4), orig.get(4, 4));
        assert_eq!(c.get(4, 1), orig.get(4, 1));
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan_and_inf() {
        // BLAS beta == 0 semantics: C is written, never read — stale NaN/Inf must not
        // leak into the product.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut c = Matrix::from_fn(2, 2, |i, j| {
            if (i + j) % 2 == 0 { f64::NAN } else { f64::INFINITY }
        });
        gemm_into_block(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c, Block::full(2, 2));
        let expected = naive_gemm(&a, &b);
        assert!(c.approx_eq(&expected, 1e-12), "NaN/Inf leaked through beta == 0");
    }

    #[test]
    fn gemm_large_parallel_path_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = random_matrix(&mut rng, 80, 70);
        let b = random_matrix(&mut rng, 70, 90);
        let c = gemm(&a, Trans::No, &b, Trans::No);
        assert!(c.approx_eq(&naive_gemm(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_crossing_mc_and_kc_boundaries_matches_naive() {
        // m > MC = 128 and k > KC = 256 exercise the packed blocking loops end to end,
        // including partial tail tiles in every dimension.
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let a = random_matrix(&mut rng, 150, 300);
        let b = random_matrix(&mut rng, 300, 37);
        let c = gemm(&a, Trans::No, &b, Trans::No);
        assert!(c.approx_eq(&naive_gemm(&a, &b), 1e-9));
        let c2 = gemm(&a.transposed(), Trans::Yes, &b.transposed(), Trans::Yes);
        assert!(c2.approx_eq(&naive_gemm(&a, &b), 1e-9));
    }

    #[test]
    fn gemm_multi_strip_parallel_split_matches_naive() {
        // Force several column strips through the thread pool regardless of the host's
        // core count; results must be bit-identical to the single-threaded run because
        // per-element summation order does not depend on the strip partition.
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let a = random_matrix(&mut rng, 140, 130);
        let b = random_matrix(&mut rng, 130, 150);
        let c_par = {
            let _guard = rayon::ThreadCountGuard::set(3);
            gemm(&a, Trans::No, &b, Trans::No)
        };
        let c_seq = {
            let _guard = rayon::ThreadCountGuard::set(1);
            gemm(&a, Trans::No, &b, Trans::No)
        };
        assert!(c_par.approx_eq(&naive_gemm(&a, &b), 1e-9));
        assert_eq!(c_par, c_seq, "thread count must not change the bits");
    }

    #[test]
    fn trsm_left_lower_solves() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Build a well-conditioned lower-triangular matrix.
        let mut l = random_matrix(&mut rng, 6, 6).lower_triangular();
        for i in 0..6 {
            l.set(i, i, 3.0 + i as f64);
        }
        let x_true = random_matrix(&mut rng, 6, 4);
        let b = gemm(&l, Trans::No, &x_true, Trans::No);
        let mut x = b.clone();
        trsm_into_block(
            Side::Left,
            UpLo::Lower,
            Trans::No,
            Diag::NonUnit,
            1.0,
            &l,
            &mut x,
            Block::full(6, 4),
        );
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn trsm_left_lower_unit_and_transposed() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut l = random_matrix(&mut rng, 5, 5).lower_triangular();
        for i in 0..5 {
            l.set(i, i, 1.0); // stored diagonal equal to the implicit unit diagonal
        }
        let x_true = random_matrix(&mut rng, 5, 3);
        // op(A) = L^T: upper triangular solve.
        let b = gemm(&l.transposed(), Trans::No, &x_true, Trans::No);
        let mut x = b.clone();
        trsm_into_block(
            Side::Left,
            UpLo::Lower,
            Trans::Yes,
            Diag::Unit,
            1.0,
            &l,
            &mut x,
            Block::full(5, 3),
        );
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn trsm_right_lower_transposed_solves() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut l = random_matrix(&mut rng, 4, 4).lower_triangular();
        for i in 0..4 {
            l.set(i, i, 2.0 + i as f64);
        }
        let x_true = random_matrix(&mut rng, 6, 4);
        // B = X * L^T
        let b = gemm(&x_true, Trans::No, &l, Trans::Yes);
        let mut x = b.clone();
        trsm_into_block(
            Side::Right,
            UpLo::Lower,
            Trans::Yes,
            Diag::NonUnit,
            1.0,
            &l,
            &mut x,
            Block::full(6, 4),
        );
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn trsm_right_upper_solves() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut u = random_matrix(&mut rng, 4, 4).upper_triangular();
        for i in 0..4 {
            u.set(i, i, 2.0 + i as f64);
        }
        let x_true = random_matrix(&mut rng, 5, 4);
        let b = gemm(&x_true, Trans::No, &u, Trans::No);
        let mut x = b.clone();
        trsm_into_block(
            Side::Right,
            UpLo::Upper,
            Trans::No,
            Diag::NonUnit,
            1.0,
            &u,
            &mut x,
            Block::full(5, 4),
        );
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn trsm_blocked_diagonal_path_solves_above_trsm_nb() {
        // n > TRSM_NB exercises the blocked diagonal sweep + GEMM updates on all four
        // (side, effective-uplo) variants.
        let n = TRSM_NB + 29;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut l = random_matrix(&mut rng, n, n).lower_triangular();
        for i in 0..n {
            l.set(i, i, (n + i) as f64); // strongly dominant diagonal: well conditioned
        }
        let x_true = random_matrix(&mut rng, n, 13);

        // Left, effective lower.
        let bmat = gemm(&l, Trans::No, &x_true, Trans::No);
        let mut x = bmat.clone();
        trsm_into_block(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, &l, &mut x, Block::full(n, 13));
        assert!(x.approx_eq(&x_true, 1e-8));

        // Left, effective upper (transposed lower).
        let bmat = gemm(&l, Trans::Yes, &x_true, Trans::No);
        let mut x = bmat.clone();
        trsm_into_block(Side::Left, UpLo::Lower, Trans::Yes, Diag::NonUnit, 1.0, &l, &mut x, Block::full(n, 13));
        assert!(x.approx_eq(&x_true, 1e-8));

        let y_true = random_matrix(&mut rng, 13, n);

        // Right, effective lower.
        let bmat = gemm(&y_true, Trans::No, &l, Trans::No);
        let mut y = bmat.clone();
        trsm_into_block(Side::Right, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, &l, &mut y, Block::full(13, n));
        assert!(y.approx_eq(&y_true, 1e-8));

        // Right, effective upper (transposed lower).
        let bmat = gemm(&y_true, Trans::No, &l, Trans::Yes);
        let mut y = bmat.clone();
        trsm_into_block(Side::Right, UpLo::Lower, Trans::Yes, Diag::NonUnit, 1.0, &l, &mut y, Block::full(13, n));
        assert!(y.approx_eq(&y_true, 1e-8));
    }

    #[test]
    fn trsm_applies_alpha() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 4.0]]);
        let b = Matrix::from_rows(&[&[4.0], &[10.0]]);
        let mut x = b.clone();
        trsm_into_block(
            Side::Left,
            UpLo::Lower,
            Trans::No,
            Diag::NonUnit,
            2.0,
            &l,
            &mut x,
            Block::full(2, 1),
        );
        // Solves L x = 2*b -> x = [4, 4]
        assert!((x.get(0, 0) - 4.0).abs() < 1e-12);
        assert!((x.get(1, 0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn syrk_lower_matches_gemm() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = random_matrix(&mut rng, 6, 4);
        let mut c = Matrix::zeros(6, 6);
        syrk_lower_into_block(1.0, &a, 0.0, &mut c, Block::full(6, 6));
        let full = gemm(&a, Trans::No, &a, Trans::Yes);
        for i in 0..6 {
            for j in 0..6 {
                if i >= j {
                    assert!((c.get(i, j) - full.get(i, j)).abs() < 1e-12);
                } else {
                    assert_eq!(c.get(i, j), 0.0, "upper triangle must stay untouched");
                }
            }
        }
    }

    #[test]
    fn syrk_large_leaves_upper_triangle_untouched() {
        // Order > MR·NR tiles: diagonal-crossing tiles must mask their write-back.
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let n = 83;
        let a = random_matrix(&mut rng, n, 31);
        let mut c = Matrix::from_fn(n, n, |i, j| (i * 7 + j) as f64);
        let orig = c.clone();
        syrk_lower_into_block(1.0, &a, 1.0, &mut c, Block::full(n, n));
        let full = gemm(&a, Trans::No, &a, Trans::Yes);
        for i in 0..n {
            for j in 0..n {
                if i >= j {
                    let expect = orig.get(i, j) + full.get(i, j);
                    assert!((c.get(i, j) - expect).abs() < 1e-9);
                } else {
                    assert_eq!(c.get(i, j), orig.get(i, j), "upper triangle changed at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn syrk_beta_zero_overwrites_nan_in_lower_triangle() {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let a = random_matrix(&mut rng, 5, 3);
        let mut c = Matrix::from_fn(5, 5, |_, _| f64::NAN);
        syrk_lower_into_block(1.0, &a, 0.0, &mut c, Block::full(5, 5));
        let full = gemm(&a, Trans::No, &a, Trans::Yes);
        for i in 0..5 {
            for j in 0..=i {
                assert!(
                    (c.get(i, j) - full.get(i, j)).abs() < 1e-12,
                    "stale NaN leaked through beta == 0 at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn gemv_matches_gemm_both_transposes() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for (rows, cols) in [(1, 1), (7, 3), (33, 65), (64, 64)] {
            let a = random_matrix(&mut rng, rows, cols);
            for (trans, k) in [(Trans::No, cols), (Trans::Yes, rows)] {
                let x = random_matrix(&mut rng, k, 1);
                let y = gemv(&a, trans, &x);
                let reference = gemm(&a, trans, &x, Trans::No);
                assert_eq!(y.rows(), reference.rows());
                for i in 0..y.rows() {
                    assert!(
                        (y.get(i, 0) - reference.get(i, 0)).abs() <= 1e-12 * (k as f64),
                        "gemv diverged from gemm at row {i} ({rows}x{cols}, {trans:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn syrk_into_offset_block_with_beta() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let a = random_matrix(&mut rng, 3, 2);
        let mut c = Matrix::from_fn(5, 5, |i, j| (i * j) as f64);
        let orig = c.clone();
        let cb = Block::new(2, 2, 3, 3);
        syrk_lower_into_block(-1.0, &a, 1.0, &mut c, cb);
        let full = gemm(&a, Trans::No, &a, Trans::Yes);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i >= j {
                    orig.get(2 + i, 2 + j) - full.get(i, j)
                } else {
                    orig.get(2 + i, 2 + j)
                };
                assert!((c.get(2 + i, 2 + j) - expected).abs() < 1e-12);
            }
        }
    }
}
