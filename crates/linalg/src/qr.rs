//! Blocked Householder QR factorization (`A = Q R`).
//!
//! Per iteration (paper Figure 1a):
//! 1. **PD** — [`panel_factor`]: recursive Householder QR of the tall panel (CPU side of
//!    the hybrid algorithm; the recursive QR of Elmroth & Gustavson, LAPACK `dgeqrt3`'s
//!    shape). The panel's columns are halved, the left half is factored, its block
//!    reflector is applied to the right half on the packed GEMM core, then the right
//!    half is factored; only `PANEL_LEAF`-wide leaves run the unblocked Householder
//!    loop. Produces the reflectors `V` (stored below the diagonal) and the scalars
//!    `tau`;
//! 2. **T factor** — [`form_t`]: the compact-WY `T` matrix of the panel (LAPACK `larft`),
//!    its reflector inner products taken on the packed core. The panel builds the same
//!    `T`, bit for bit, while it factors, and the drivers apply that one;
//! 3. **TMU** — [`apply_block_reflector`]: `A₂ ← (I − V Tᵀ Vᵀ) A₂` applied to the trailing
//!    columns (LAPACK `larfb`, the GPU side).

use crate::blas1::{axpy, nrm2, scal};
use crate::blas3::{
    gemm, gemm_acc_cols_prepacked, gemm_block, repack_a_op, Operand, PackedA, Trans,
};
use crate::dag::{group_bounds, DagBuilder, DagExecution, DagTiming, TaskOutcome};
use crate::matrix::{Block, Matrix};
use crate::task::{
    restore_rows, snapshot_rows, split_tiles, split_tiles_at, StepTiming, TileCols, TileVerdict,
    TrailingHook,
};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Reflector-group width used when applying `Q`/`Qᵀ` from stored reflectors.
/// Independent of the block size the factorization used: reflectors compose column by
/// column, so any grouping yields the same operator. One dimension of each of a group's
/// two big GEMMs is `APPLY_BLOCK`, so it is sized for the packed core (every element
/// of `C` is packed once per group) against the `op(T)·W` product, which grows with it;
/// 64, 96 and 128 measure within a few percent of each other at n = 1024.
const APPLY_BLOCK: usize = 96;

/// Widest part of a panel the recursion ([`panel_factor`]) factors with the unblocked
/// loop instead of splitting further. Leaves of 8, 16 and 32 measure alike at
/// n = 1024, b = 128: a wider leaf trades small in-panel GEMMs for level-2 work.
const PANEL_LEAF: usize = 16;

/// Householder QR factors stored compactly: reflectors below the diagonal of `qr`, `R` on
/// and above the diagonal, and one `tau` per column.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Compact storage of reflectors and R.
    pub qr: Matrix,
    /// Householder scalars, one per column.
    pub taus: Vec<f64>,
}

impl QrFactors {
    /// Extract the upper-triangular factor `R` (same shape as the input matrix).
    pub fn r(&self) -> Matrix {
        self.qr.upper_triangular()
    }

    /// Apply `Qᵀ` to `c` in place (c ← Qᵀ c).
    ///
    /// The stored reflectors are regrouped into `APPLY_BLOCK`-wide panels and each
    /// panel is applied as one compact-WY block reflector (`C ← (I − V Tᵀ Vᵀ) C`), in
    /// place on `c`, so the whole application rides the level-3 GEMM kernels instead of
    /// per-reflector rank-1 sweeps.
    pub fn apply_q_transpose(&self, c: &mut Matrix) {
        // Qᵀ = Pₖᵀ … P₁ᵀ with Pᵢᵀ = I − Vᵢ Tᵢᵀ Vᵢᵀ, applied panel-forward.
        self.apply_groups(c, Trans::Yes, false);
    }

    /// Apply `Q` to `c` in place (c ← Q c): block reflectors applied in reverse order
    /// (`C ← (I − V T Vᵀ) C` per panel), again through the level-3 GEMM kernels.
    pub fn apply_q(&self, c: &mut Matrix) {
        // Q = P₁ … Pₖ with Pᵢ = I − Vᵢ Tᵢ Vᵢᵀ, applied panel-backward.
        self.apply_groups(c, Trans::No, false);
    }

    /// [`Self::apply_q`] for an upper-trapezoidal `c` (`c[i, j] == 0` for `i > j`, e.g.
    /// [`Self::r`]): the group starting at reflector `j0` acts on rows `≥ j0`, where
    /// every column left of `j0` is still exactly zero when the groups run backward, so
    /// it is applied to columns `≥ j0` only — `4/3 · n³` flops on a square matrix
    /// instead of `2 n³`. This is how the residual check forms `Q·R`.
    pub fn apply_q_upper(&self, c: &mut Matrix) {
        debug_assert!(
            (0..c.cols()).all(|j| c.col(j).iter().skip(j + 1).all(|&x| x == 0.0)),
            "apply_q_upper: operand must be zero below the diagonal"
        );
        self.apply_groups(c, Trans::No, true);
    }

    /// The shared group loop: forward for `Qᵀ` (`op(T) = Tᵀ`), backward for `Q`.
    fn apply_groups(&self, c: &mut Matrix, trans_t: Trans, upper_operand: bool) {
        let m = self.qr.rows();
        assert_eq!(c.rows(), m, "apply_q: row mismatch");
        let k = self.taus.len();
        let nblocks = k.div_ceil(APPLY_BLOCK);
        let mut scratch = WyScratch::new(APPLY_BLOCK.min(k), c.cols());
        for step in 0..nblocks {
            let blk = if trans_t == Trans::Yes { step } else { nblocks - 1 - step };
            let j0 = blk * APPLY_BLOCK;
            let nb = APPLY_BLOCK.min(k - j0);
            let v = extract_reflectors(&self.qr, j0, nb);
            let t = wy_t(&v, &self.taus[j0..j0 + nb]);
            let col0 = if upper_operand { j0.min(c.cols()) } else { 0 };
            let cb = Block::new(j0, col0, m - j0, c.cols() - col0);
            apply_wy_left(&v, 0, nb, Operand::whole(&t, trans_t), c, cb, &mut scratch);
        }
    }

    /// Form `Q` explicitly (m × m).
    pub fn q(&self) -> Matrix {
        let mut q = Matrix::identity(self.qr.rows());
        self.apply_q(&mut q);
        q
    }
}

/// Compute a Householder reflector for the vector `x` (length ≥ 1) **in place**: on
/// return `x[0] = beta` and `x[1..]` holds the reflector tail. Returns `tau`. Matches
/// LAPACK `dlarfg` conventions. Operating directly on the column slice avoids the
/// gather/scatter copies of an element-at-a-time formulation.
fn householder(x: &mut [f64]) -> f64 {
    let alpha = x[0];
    let xnorm = norm(&x[1..]);
    if xnorm == 0.0 {
        return 0.0;
    }
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    scal(1.0 / (alpha - beta), &mut x[1..]);
    x[0] = beta;
    tau
}

/// Euclidean norm of the reflector tail: the one-pass sum of squares when it is finite
/// and at least `MIN_POSITIVE / ε` (so no square overflowed, and any square that
/// underflowed is far below `ε` of the sum), else the scaled two-pass [`nrm2`].
fn norm(x: &[f64]) -> f64 {
    let ss = dot_lanes(x, x);
    if ss.is_finite() && ss >= f64::MIN_POSITIVE / f64::EPSILON {
        ss.sqrt()
    } else {
        nrm2(x)
    }
}

/// Dot product accumulated in eight interleaved partial sums, combined in a fixed order
/// (so the result is deterministic). The leaf's reflector applications are bound by
/// this reduction: one running sum serializes on the add latency, eight lanes vectorize.
fn dot_lanes(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let (xs, ys) = (x.chunks_exact(8), y.chunks_exact(8));
    let tail: f64 = xs.remainder().iter().zip(ys.remainder()).map(|(a, b)| a * b).sum();
    let mut acc = [0.0; 8];
    for (xc, yc) in xs.zip(ys) {
        for ((s, &xv), &yv) in acc.iter_mut().zip(xc).zip(yc) {
            *s += xv * yv;
        }
    }
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7])) + tail
}

/// Unblocked Householder QR of the `nb` columns at `(j0, j0)`, the recursion's leaf.
/// Appends one `tau` per column to `taus`. Each reflector is generated in place on its
/// column and applied to every later leaf column with one `dot` + one `axpy` against
/// the reflector tail.
fn factor_leaf(a: &mut Matrix, j0: usize, nb: usize, taus: &mut Vec<f64>) {
    let m = a.rows();
    for jj in 0..nb {
        let j = j0 + jj;
        // Reflector from column j, rows j..m, generated in place.
        let tau = householder(a.col_range_mut(j, j, m));
        taus.push(tau);
        if tau == 0.0 {
            continue;
        }
        // Apply H = I − tau v vᵀ to the remaining leaf columns j+1 .. j0+nb.
        for c in j + 1..j0 + nb {
            let (vcol, ccol) = a.col_pair_mut(j, c);
            let v_tail = &vcol[j + 1..m];
            let w = tau * (ccol[j] + dot_lanes(v_tail, &ccol[j + 1..m]));
            ccol[j] -= w;
            axpy(-w, v_tail, &mut ccol[j + 1..m]);
        }
    }
}

/// Recursive Householder QR (PD) of the panel `A[j0.., j0..j0+nb]`. The columns are
/// halved, the left half is factored, its block reflector `(I − V₁ T₁ᵀ V₁ᵀ)` is applied
/// to the right half on the packed GEMM core, then the right half is factored. Parts of
/// at most `PANEL_LEAF` columns are the leaves: the unblocked loop, one `dot` + one
/// `axpy` per reflector and later leaf column. Reflectors are stored below the diagonal
/// and `R` on and above it, as the unblocked factorization stores them.
///
/// Appends one `tau` per panel column to `taus`, after whatever it already holds (it is
/// never indexed by `j0`). The panel builds its compact-WY `T` while it factors; the
/// drivers apply that `T`, and [`form_t`] on the factored panel returns it bit for bit.
pub fn panel_factor(a: &mut Matrix, j0: usize, nb: usize, taus: &mut Vec<f64>) {
    factor_panel_wy(a, j0, nb, taus);
}

/// A panel's compact-WY representation, grown while the recursion factors it: the
/// explicit unit lower-trapezoidal reflectors `v` (`(m − j0) × nb`), their `t`, the
/// reflector inner products `gram` (lower triangle of `Vᵀ V`) `t` is built from, and
/// the scratch of the in-panel applications.
struct PanelWy {
    v: Matrix,
    t: Matrix,
    gram: Matrix,
    scratch: WyScratch,
}

/// [`panel_factor`], returning the panel's explicit reflectors `V` and its compact-WY
/// `T` — the `T` every driver applies.
fn factor_panel_wy(a: &mut Matrix, j0: usize, nb: usize, taus: &mut Vec<f64>) -> (Matrix, Matrix) {
    let mut wy = PanelWy {
        v: Matrix::zeros(a.rows() - j0, nb),
        t: Matrix::zeros(nb, nb),
        gram: Matrix::zeros(nb, nb),
        // The top split bounds both dimensions of every in-panel application.
        scratch: WyScratch::new(nb / 2, nb - nb / 2),
    };
    let tau0 = taus.len();
    factor_rec(a, j0, 0, nb, taus, tau0, &mut wy);
    (wy.v, wy.t)
}

/// Factor the panel-relative columns `[s, s + w)` of the panel at `(j0, j0)`, whose
/// `tau`s start at `taus[tau0]`, and complete the `[s, s + w)` diagonal blocks of
/// `wy.gram` and `wy.t` — the `T` block a left half's application reads. Each Gram and
/// `T` entry is computed once, by the same sum [`form_t`] takes.
fn factor_rec(
    a: &mut Matrix,
    j0: usize,
    s: usize,
    w: usize,
    taus: &mut Vec<f64>,
    tau0: usize,
    wy: &mut PanelWy,
) {
    if w <= PANEL_LEAF {
        factor_leaf(a, j0 + s, w, taus);
        copy_reflectors(a, j0, s, w, &mut wy.v);
        gram_block(&wy.v, &mut wy.gram, s, s, w, w);
        recur_t(&wy.gram, &taus[tau0..], &mut wy.t, s..s + w, s..s + w);
        return;
    }
    let n1 = w / 2;
    factor_rec(a, j0, s, n1, taus, tau0, wy);
    let cb = Block::new(j0 + s, j0 + s + n1, a.rows() - j0 - s, w - n1);
    let t1 = Operand::at(&wy.t, Trans::Yes, s, s);
    apply_wy_left(&wy.v, s, n1, t1, a, cb, &mut wy.scratch);
    factor_rec(a, j0, s + n1, w - n1, taus, tau0, wy);
    // Couple the halves: the inner products V₂ᵀ V₁, then T's off-diagonal block.
    gram_block(&wy.v, &mut wy.gram, s + n1, s, w - n1, n1);
    recur_t(&wy.gram, &taus[tau0..], &mut wy.t, s..s + n1, s + n1..s + w);
}

/// Form the compact-WY `T` factor (upper triangular, `nb × nb`) of the panel starting at
/// `(j0, j0)` whose reflectors are stored in `a` with scalars `taus[j0..j0+nb]`
/// (LAPACK `larft`, forward columnwise).
///
/// This is the one compact-WY builder: all reflector inner products are taken as one
/// lower-masked GEMM `Vᵀ V` on the packed core, then one pass runs the `larft`
/// recurrence. [`panel_factor`] takes the same inner products and the same recurrence
/// sums in pieces as its recursion completes them, so on a panel it factored this
/// returns, bit for bit, the `T` the drivers apply; [`QrFactors::apply_q`] and its
/// siblings build their regrouped `T`s here too.
pub fn form_t(a: &Matrix, j0: usize, nb: usize, taus: &[f64]) -> Matrix {
    wy_t(&extract_reflectors(a, j0, nb), &taus[j0..j0 + nb])
}

/// The compact-WY `T` of the explicit reflector trapezoid `v` with scalars `taus`.
fn wy_t(v: &Matrix, taus: &[f64]) -> Matrix {
    let nb = v.cols();
    let mut gram = Matrix::zeros(nb, nb);
    gram_block(v, &mut gram, 0, 0, nb, nb);
    let mut t = Matrix::zeros(nb, nb);
    recur_t(&gram, taus, &mut t, 0..nb, 0..nb);
    t
}

/// `gram[i0.., k0..] = (Vᵀ V)[i0.., k0..]` for a `rows × cols` block of reflector inner
/// products, lower-masked on the diagonal (`i0 == k0`). The inner dimension is always
/// all of `v`'s rows, and the packed core's per-element sum depends only on it, so an
/// entry has the same bits whichever block computes it.
fn gram_block(v: &Matrix, gram: &mut Matrix, i0: usize, k0: usize, rows: usize, cols: usize) {
    let (vt, vn) = (Operand::at(v, Trans::Yes, i0, 0), Operand::at(v, Trans::No, 0, k0));
    gemm_block(1.0, vt, vn, v.rows(), 0.0, gram, Block::new(i0, k0, rows, cols), i0 == k0);
}

/// The `larft` recurrence `T[0..i, i] = −τᵢ · T[0..i, 0..i] · (Vᵀ vᵢ)[0..i]` (inner
/// products from the lower triangle of `gram`), for the entries of `t` in rows `rows`
/// and columns `cols`; `taus` is indexed like `t`'s columns. Each `T[r, i]` (`r < i`)
/// is accumulated over `k = r .. i` in ascending order, the same sum whichever range
/// computes it, so the range only has to come after every `T[r, k]` it reads. The
/// diagonal `T[i, i] = τᵢ` is set by the range that contains it.
fn recur_t(gram: &Matrix, taus: &[f64], t: &mut Matrix, rows: Range<usize>, cols: Range<usize>) {
    for i in cols {
        let tau = taus[i];
        if rows.contains(&i) {
            t.set(i, i, tau);
        }
        if tau == 0.0 {
            continue;
        }
        // T's column k contributes −tau · (v_kᵀ v_i) · T[.., k] to the rows at or above k.
        for k in rows.start..i {
            let wk = -tau * gram.get(i, k);
            if wk != 0.0 {
                let hi = rows.end.min(k + 1);
                let (tcol_k, tcol_i) = t.col_pair_mut(k, i);
                axpy(wk, &tcol_k[rows.start..hi], &mut tcol_i[rows.start..hi]);
            }
        }
    }
}

/// Copy the reflectors of panel columns `[k0, k0 + w)` of the panel at `(j0, j0)` out of
/// compact storage into the same columns of the explicit unit lower-trapezoidal `v`
/// (whose row 0 is row `j0` of `a`); entries above each unit diagonal are not written.
fn copy_reflectors(a: &Matrix, j0: usize, k0: usize, w: usize, v: &mut Matrix) {
    let m = a.rows();
    for k in k0..k0 + w {
        let vcol = v.col_mut(k);
        vcol[k] = 1.0;
        vcol[k + 1..].copy_from_slice(a.col_range(j0 + k, j0 + k + 1, m));
    }
}

/// Copy the `nb` reflectors of the panel at `(j0, j0)` out of compact storage into an
/// explicit `(m − j0) × nb` unit lower-trapezoidal `V`.
fn extract_reflectors(a: &Matrix, j0: usize, nb: usize) -> Matrix {
    let mut v = Matrix::zeros(a.rows() - j0, nb);
    copy_reflectors(a, j0, 0, nb, &mut v);
    v
}

/// The two `nb × ncols` intermediates of a compact-WY application (`Vᵀ C` and
/// `op(T) Vᵀ C`), allocated once and reused across the reflector groups of one sweep.
struct WyScratch {
    vtc: Matrix,
    tvtc: Matrix,
}

impl WyScratch {
    fn new(nb: usize, ncols: usize) -> Self {
        Self { vtc: Matrix::zeros(nb, ncols), tvtc: Matrix::zeros(nb, ncols) }
    }
}

/// Apply the compact-WY block reflector `(I − V op(T) Vᵀ)` to the block `cb` of `c`, in
/// place (LAPACK `larfb`, `side = Left`): `op(T) = Tᵀ` applies `Qᵀ` of the reflectors,
/// `op(T) = T` applies `Q`. `V` is the `cb.rows × nb` unit lower trapezoid at `(v0, v0)`
/// of an explicit reflector matrix `v` (from [`extract_reflectors`] or a panel's
/// [`PanelWy`]), and `t` views the `nb × nb` `op(T)`. The packed core reads `V`, `T`
/// and `C[cb]` where they lie — no extracted copies.
fn apply_wy_left(
    v: &Matrix,
    v0: usize,
    nb: usize,
    t: Operand<'_, f64>,
    c: &mut Matrix,
    cb: Block,
    scratch: &mut WyScratch,
) {
    if cb.is_empty() {
        return;
    }
    debug_assert_eq!(v.rows() - v0, cb.rows);
    let wb = Block::new(0, 0, nb, cb.cols);
    // W = Vᵀ C  (nb × ncols)
    let (vt, c_op) = (Operand::at(v, Trans::Yes, v0, v0), Operand::at(c, Trans::No, cb.row, cb.col));
    gemm_block(1.0, vt, c_op, cb.rows, 0.0, &mut scratch.vtc, wb, false);
    // W ← op(T) W
    let w_op = Operand::whole(&scratch.vtc, Trans::No);
    gemm_block(1.0, t, w_op, nb, 0.0, &mut scratch.tvtc, wb, false);
    // C ← C − V W
    let (vn, w_op) = (Operand::at(v, Trans::No, v0, v0), Operand::whole(&scratch.tvtc, Trans::No));
    gemm_block(-1.0, vn, w_op, nb, 1.0, c, cb, false);
}

/// Apply the block reflector of the panel at `(j0, j0)` (reflectors in `a`, factor `t`) to
/// the trailing columns `[col_start, col_end)` of `a`: `C ← (I − V Tᵀ Vᵀ) C`, which is the
/// application of `Qᵀ` needed by the factorization (LAPACK `larfb`, `side = Left`,
/// `trans = Transpose`).
pub fn apply_block_reflector(
    a: &mut Matrix,
    j0: usize,
    nb: usize,
    t: &Matrix,
    col_start: usize,
    col_end: usize,
) {
    let m = a.rows();
    if col_start >= col_end {
        return;
    }
    let v = extract_reflectors(a, j0, nb);
    let c_block = Block::new(j0, col_start, m - j0, col_end - col_start);
    let mut scratch = WyScratch::new(nb, c_block.cols);
    apply_wy_left(&v, 0, nb, Operand::whole(t, Trans::Yes), a, c_block, &mut scratch);
}

/// Blocked Householder QR with block size `block`.
pub fn qr_blocked(a: &Matrix, block: usize) -> QrFactors {
    assert!(block > 0, "block size must be positive");
    let n = a.cols();
    let m = a.rows();
    let mut qr = a.clone();
    let mut taus = Vec::with_capacity(n.min(m));
    let kmax = n.min(m);
    let mut j0 = 0;
    while j0 < kmax {
        let nb = block.min(kmax - j0);
        // The panel's own V and T: the same bits `form_t` + `apply_block_reflector`
        // would rebuild from the stored reflectors.
        let (v, t) = factor_panel_wy(&mut qr, j0, nb, &mut taus);
        if j0 + nb < n {
            let cb = Block::new(j0, j0 + nb, m - j0, n - j0 - nb);
            let mut scratch = WyScratch::new(nb, cb.cols);
            apply_wy_left(&v, 0, nb, Operand::whole(&t, Trans::Yes), &mut qr, cb, &mut scratch);
        }
        j0 += nb;
    }
    QrFactors { qr, taus }
}

/// Number of blocked iterations for an `n × n` input with block size `b`.
pub fn num_iterations(n: usize, b: usize) -> usize {
    n.div_ceil(b)
}

// =======================================================================================
// Tiled task-parallel driver with one-step panel lookahead.
// =======================================================================================

/// A factored diagonal panel as the tile drivers publish it: its `tau`s, its explicit
/// reflectors `V` (rows `[row0, m)`) and its compact-WY `T`.
struct FactoredPanel {
    taus: Vec<f64>,
    v: Matrix,
    t: Matrix,
}

/// Factor the `pw`-column diagonal QR panel held in the first columns of `tile` (rows
/// `[row0, m)`) on an extracted copy. `pw` may be narrower than the tile when the panel
/// is clipped by `min(m, n)` on wide matrices.
fn factor_panel_tile(tile: &mut TileCols<'_>, row0: usize, pw: usize) -> FactoredPanel {
    let m = tile.rows();
    let mut panel = crate::task::extract_cols(&tile.cols[..pw], row0, m);
    let mut taus = Vec::with_capacity(pw);
    let (v, t) = factor_panel_wy(&mut panel, 0, pw, &mut taus);
    for j in 0..pw {
        tile.cols[j][row0..].copy_from_slice(panel.col(j));
    }
    FactoredPanel { taus, v, t }
}

/// One QR trailing tile task of iteration `k`: the tile's slice of the compact-WY
/// block-reflector application `C ← (I − V Tᵀ Vᵀ) C` over rows `[j0, m)`, then the
/// trailing hook over rows `[trail_row0, m)` — the drivers pass `trail_row0 = j0`,
/// the full row span the reflector writes, because rows `[j0, j0 + nb)` of the
/// trailing columns become final `R` entries this iteration and are never revisited
/// (a hook that skipped them would leave them permanently unchecked). `V` arrives
/// pre-packed
/// in both orientations (`vt_p` for `Vᵀ C`, `v_p` for `C − V W`), shared by every tile
/// task of the iteration.
///
/// Each call is one **self-contained attempt**: if the hook opted into snapshots and
/// returns [`TileVerdict::Recompute`], the tile is rolled back to its pre-attempt
/// contents before the verdict is passed to the caller, so simply calling again
/// re-runs the identical update from clean inputs.
#[allow(clippy::too_many_arguments)] // mirrors the per-iteration operand set
fn qr_update_tile(
    tile: &mut TileCols<'_>,
    iter: usize,
    j0: usize,
    nb: usize,
    vt_p: &PackedA,
    v_p: &PackedA,
    t: &Matrix,
    trail_row0: usize,
    hook: &dyn TrailingHook,
) -> TileVerdict {
    let snap = hook.wants_snapshots().then(|| snapshot_rows(&tile.cols, trail_row0, tile.width()));
    let m = tile.rows();
    let width = tile.width();
    let c = tile.extract(j0, m);
    // W = Vᵀ C, accumulated into a zeroed buffer (bit-identical to the `gemm` the
    // synchronous path runs: beta = 0 zero-fills, then the strip accumulates).
    let mut wdata = vec![0.0; nb * width];
    {
        let mut wcols: Vec<&mut [f64]> = wdata.chunks_exact_mut(nb).collect();
        gemm_acc_cols_prepacked(1.0, vt_p, 0, &c, Trans::No, 0, &mut wcols, false);
    }
    let w = Matrix::from_column_major(nb, width, wdata);
    // W ← Tᵀ W (applying Qᵀ of the panel), then C ← C − V W.
    let w = gemm(t, Trans::Yes, &w, Trans::No);
    let col0 = tile.col0;
    let verdict = {
        let mut sub = tile.rows_from(j0);
        gemm_acc_cols_prepacked(-1.0, v_p, 0, &w, Trans::No, 0, &mut sub, false);
        let mut hook_rows = tile.rows_from(trail_row0);
        hook.after_tile_update(iter, col0, trail_row0, &mut hook_rows)
    };
    if verdict == TileVerdict::Recompute {
        if let Some(snap) = &snap {
            restore_rows(&mut tile.cols, trail_row0, snap);
            return TileVerdict::Recompute;
        }
    }
    TileVerdict::Accept
}

/// One lookahead-panel attempt: snapshot (when the hook may demand a rollback),
/// factor the `pw`-wide panel, then offer the freshly written panel columns to the
/// hook. On [`TileVerdict::Recompute`] the panel rows are restored and `None` is
/// returned — the caller refactors from the identical pre-attempt state (same
/// reflectors, same bits). Only the first `pw` columns are written, snapshotted and
/// shown to the hook (on wide matrices the tile may be wider than the panel).
fn qr_panel_attempt(
    tile: &mut TileCols<'_>,
    iter: usize,
    row0: usize,
    pw: usize,
    hook: &dyn TrailingHook,
) -> Option<FactoredPanel> {
    let snap = hook.wants_snapshots().then(|| snapshot_rows(&tile.cols, row0, pw));
    let col0 = tile.col0;
    let result = factor_panel_tile(tile, row0, pw);
    let verdict = {
        let mut panel_rows = tile.rows_from(row0);
        hook.after_panel_factor(iter, col0, row0, &mut panel_rows[..pw])
    };
    if verdict == TileVerdict::Recompute {
        if let Some(snap) = &snap {
            restore_rows(&mut tile.cols, row0, snap);
            return None;
        }
    }
    Some(result)
}

/// Tiled task-parallel Householder QR with one-step panel lookahead.
///
/// Produces **bit-identical** factors (`qr` storage and `tau`s) to [`qr_blocked`] with
/// the same block size, at any thread count: the block-reflector trailing update is
/// decomposed into per-tile-column tasks (columns of `C` are independent through the
/// compact-WY GEMMs), and panel `k + 1` factorizes — inside the task that updates its
/// tile first — concurrently with the rest of trailing update `k`.
pub fn qr_tiled(a: &Matrix, block: usize) -> QrFactors {
    qr_tiled_with(a, block, &())
}

/// [`qr_tiled`] with a [`TrailingHook`] fused into every trailing tile task.
pub fn qr_tiled_with(a: &Matrix, block: usize, hook: &dyn TrailingHook) -> QrFactors {
    let mut stepper = QrTiledStepper::new(a, block);
    for k in 0..stepper.iterations() {
        stepper.step(k, hook);
    }
    stepper.into_factors()
}

/// What the lookahead task reports back: the next panel and the measured duration of
/// its factorization.
type PanelOutcome = (FactoredPanel, f64);

/// One tiled QR iteration: the per-tile-column block-reflector task graph of trailing
/// update `k` with the lookahead factorization of panel `k + 1` riding its tile's task.
#[allow(clippy::too_many_arguments)] // mirrors the per-iteration operand set
fn qr_step(
    qr: &mut Matrix,
    block: usize,
    kmax: usize,
    taus: &mut Vec<f64>,
    tmat: &mut Matrix,
    vt_p: &mut PackedA,
    v_p: &mut PackedA,
    k: usize,
    hook: &dyn TrailingHook,
) -> StepTiming {
    let m = qr.rows();
    let n = qr.cols();
    let j0 = k * block;
    let nb = block.min(kmax - j0);
    if j0 + nb >= n {
        return StepTiming::default();
    }
    let region_t0 = Instant::now();
    let v = extract_reflectors(qr, j0, nb);
    repack_a_op(vt_p, &v, Trans::Yes, 0, 0, nb, m - j0);
    repack_a_op(v_p, &v, Trans::No, 0, 0, m - j0, nb);
    let (_, tiles) = split_tiles(qr, 0, j0 + nb, block);
    let next_panel: Mutex<Option<PanelOutcome>> = Mutex::new(None);
    rayon::scope(|s| {
        let mut tiles = tiles.into_iter();
        let look = tiles.next().expect("trailing tiles exist");
        {
            let (vt_p, v_p, tmat, next_panel) = (&*vt_p, &*v_p, &*tmat, &next_panel);
            s.spawn(move || {
                let mut tile = look;
                while qr_update_tile(&mut tile, k, j0, nb, vt_p, v_p, tmat, j0, hook)
                    == TileVerdict::Recompute
                {}
                // Factor panel k + 1 when this tile contains one (on wide inputs
                // the trailing columns outlive the panels).
                if tile.col0 < kmax {
                    let pw = tile.width().min(kmax - tile.col0);
                    let row0 = tile.col0;
                    let panel_t0 = Instant::now();
                    let result = loop {
                        if let Some(r) = qr_panel_attempt(&mut tile, k, row0, pw, hook) {
                            break r;
                        }
                    };
                    let panel_s = panel_t0.elapsed().as_secs_f64();
                    *next_panel.lock().unwrap() = Some((result, panel_s));
                }
            });
        }
        for tile in tiles {
            let (vt_p, v_p, tmat) = (&*vt_p, &*v_p, &*tmat);
            s.spawn(move || {
                let mut tile = tile;
                while qr_update_tile(&mut tile, k, j0, nb, vt_p, v_p, tmat, j0, hook)
                    == TileVerdict::Recompute
                {}
            });
        }
    });
    let update_s = region_t0.elapsed().as_secs_f64();
    let mut panel_s = 0.0;
    if let Some((panel, measured)) = next_panel.into_inner().unwrap() {
        taus.extend(panel.taus);
        *tmat = panel.t;
        panel_s = measured;
    }
    StepTiming { panel_s, update_s }
}

/// Iteration-at-a-time driver of the tiled task-parallel QR: the per-iteration twin of
/// [`qr_tiled_with`] for callers (the numeric-mode engine in `bsr-core`) that
/// interleave every blocked iteration with planning, fault injection and measured-time
/// accounting. Stepping through all iterations in order produces **bit-identical**
/// factors to [`qr_tiled`] / [`qr_blocked`], and each step reports its measured
/// [`StepTiming`].
pub struct QrTiledStepper {
    qr: Matrix,
    taus: Vec<f64>,
    tmat: Matrix,
    block: usize,
    kmax: usize,
    vt_p: PackedA,
    v_p: PackedA,
    prologue_s: f64,
}

impl QrTiledStepper {
    /// Clone `a` and factor panel 0 synchronously (the prologue every tiled run pays
    /// before its first trailing update).
    pub fn new(a: &Matrix, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        let m = a.rows();
        let n = a.cols();
        let kmax = n.min(m);
        let mut qr = a.clone();
        let mut taus = Vec::with_capacity(kmax);
        let t0 = Instant::now();
        let tmat = if kmax == 0 {
            Matrix::zeros(0, 0)
        } else {
            let (_, mut tiles) = split_tiles(&mut qr, 0, 0, block);
            let panel = factor_panel_tile(&mut tiles[0], 0, block.min(kmax));
            taus.extend(panel.taus);
            panel.t
        };
        let prologue_s = t0.elapsed().as_secs_f64();
        Self {
            qr,
            taus,
            tmat,
            block,
            kmax,
            vt_p: PackedA::default(),
            v_p: PackedA::default(),
            prologue_s,
        }
    }

    /// Number of blocked iterations; [`Self::step`] must be called exactly once for
    /// each `k` in `0..iterations()`, in order.
    pub fn iterations(&self) -> usize {
        self.kmax.div_ceil(self.block)
    }

    /// Measured duration of the panel-0 prologue factored by [`Self::new`].
    pub fn prologue_panel_s(&self) -> f64 {
        self.prologue_s
    }

    /// Run iteration `k`'s task graph (trailing tile updates + lookahead panel
    /// `k + 1`) with `hook` fused into every trailing tile task.
    pub fn step(&mut self, k: usize, hook: &dyn TrailingHook) -> StepTiming {
        qr_step(
            &mut self.qr,
            self.block,
            self.kmax,
            &mut self.taus,
            &mut self.tmat,
            &mut self.vt_p,
            &mut self.v_p,
            k,
            hook,
        )
    }

    /// The matrix in its current (partially factored) state.
    pub fn matrix(&self) -> &Matrix {
        &self.qr
    }

    /// Snapshot the factorization state before an iteration, for [`Self::restore`]:
    /// the compact storage, the `tau`s accumulated so far and the pending panel's
    /// `T` factor. The packed `V` operands are rebuilt from the matrix every step,
    /// so stepping from a restored checkpoint replays the identical bits.
    pub fn checkpoint(&self) -> (Matrix, Vec<f64>, Matrix) {
        (self.qr.clone(), self.taus.clone(), self.tmat.clone())
    }

    /// Roll the factorization state back to a [`Self::checkpoint`] taken earlier,
    /// so the iteration that followed it can be replayed.
    pub fn restore(&mut self, snap: &(Matrix, Vec<f64>, Matrix)) {
        self.qr = snap.0.clone();
        self.taus = snap.1.clone();
        self.tmat = snap.2.clone();
    }

    /// Package the factors after the final step.
    pub fn into_factors(self) -> QrFactors {
        QrFactors { qr: self.qr, taus: self.taus }
    }
}

// =======================================================================================
// Dependency-driven DAG driver (depth-unbounded lookahead; see `crate::dag`).
// =======================================================================================

/// Operands panel `k` publishes for its trailing-update consumers: the reflectors `V`
/// pre-packed in both GEMM orientations and the compact-WY `T` factor. Bit-identical
/// to the barrier stepper's per-iteration copies (the pack reads the same reflector
/// values the full-matrix `extract_reflectors` would).
struct QrPanelOps {
    vt_p: PackedA,
    v_p: PackedA,
    t: Matrix,
}

/// Dependency-driven DAG Householder QR with depth-unbounded panel lookahead.
///
/// Same math, same bits as [`qr_blocked`] / [`qr_tiled`] with the same block size, at
/// any thread count and under any task schedule; the per-iteration barrier is replaced
/// by per-tile dependency counters (see [`crate::dag`]). On wide matrices
/// (`n > min(m, n)`) the fixed column partition places a group boundary at
/// `min(m, n)`, so panel groups are exactly panel-wide — numerically identical to the
/// barrier path (trailing columns are independent through the compact-WY GEMMs).
pub fn qr_dag(a: &Matrix, block: usize) -> QrFactors {
    qr_dag_with(a, block, &(), DagExecution::Pool).0
}

/// [`qr_dag`] with a [`TrailingHook`] fused into every trailing tile task and an
/// explicit [`DagExecution`] mode; also returns the per-task measured [`DagTiming`].
pub fn qr_dag_with(
    a: &Matrix,
    block: usize,
    hook: &dyn TrailingHook,
    exec: DagExecution,
) -> (QrFactors, DagTiming) {
    assert!(block > 0, "block size must be positive");
    let m = a.rows();
    let n = a.cols();
    let kmax = n.min(m);
    let mut qr = a.clone();
    let kpanels = kmax.div_ceil(block);
    if n == 0 {
        return (QrFactors { qr, taus: Vec::new() }, DagTiming::default());
    }
    let t0 = Instant::now();
    let bounds = group_bounds(n, kmax, block);
    let g = bounds.len();
    let width_of = |p: usize| bounds.get(p + 1).copied().unwrap_or(n) - bounds[p];
    // Group `grp`'s chain: Update(p, grp) for p < min(grp, K), then Panel(grp) when
    // grp < K (K = number of panels; trailing-only groups of wide matrices have no
    // panel task). Chain lengths vary, so ids are assigned in one pass and cross
    // edges point at the already-assigned Panel(p) ids.
    let mut builder = DagBuilder::new();
    let mut task_of: Vec<(usize, usize)> = Vec::new();
    let mut panel_ids = vec![0usize; kpanels];
    for grp in 0..g {
        let updates = grp.min(kpanels);
        for (p, &panel_id) in panel_ids.iter().enumerate().take(updates) {
            let id = builder.add_task();
            task_of.push((grp, p));
            if p > 0 {
                builder.add_edge(id - 1, id);
            }
            builder.add_edge(panel_id, id);
        }
        if grp < kpanels {
            let id = builder.add_task();
            task_of.push((grp, grp));
            if updates > 0 {
                builder.add_edge(id - 1, id);
            }
            panel_ids[grp] = id;
        }
    }
    let ops: Vec<OnceLock<QrPanelOps>> = (0..kpanels).map(|_| OnceLock::new()).collect();
    let taus_slots: Vec<OnceLock<Vec<f64>>> = (0..kpanels).map(|_| OnceLock::new()).collect();
    let panel_nanos: Vec<AtomicU64> = (0..kpanels).map(|_| AtomicU64::new(0)).collect();
    let update_nanos: Vec<AtomicU64> = (0..kpanels).map(|_| AtomicU64::new(0)).collect();
    let tiles: Vec<Mutex<TileCols<'_>>> =
        split_tiles_at(&mut qr, &bounds).into_iter().map(Mutex::new).collect();
    crate::dag::execute(builder, exec, &format!("qr m={m} n={n} b={block}"), |id| {
        let (grp, p) = task_of[id];
        let mut tile = tiles[grp].lock().unwrap();
        let j0 = bounds[p];
        let task_t0 = Instant::now();
        if p == grp {
            // Panel task; the partition clips panel groups at kmax, so the group
            // width is exactly the panel width. Panel(grp) is iteration grp − 1's
            // lookahead panel; the prologue panel (grp = 0) predates every
            // iteration and is never offered to the hook — matching the stepped
            // drivers.
            let pw = tile.width();
            let attempt = if grp > 0 {
                qr_panel_attempt(&mut tile, grp - 1, j0, pw, hook)
            } else {
                Some(factor_panel_tile(&mut tile, j0, pw))
            };
            let Some(panel) = attempt else {
                // Rolled back by the hook: resubmit the repair attempt without
                // publishing operands or taus.
                panel_nanos[grp].fetch_add(task_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                return TaskOutcome::Retry;
            };
            if grp + 1 < g {
                // Publish the panel's own V in both packed orientations, plus its T.
                let mut vt_p = PackedA::default();
                let mut v_p = PackedA::default();
                repack_a_op(&mut vt_p, &panel.v, Trans::Yes, 0, 0, pw, m - j0);
                repack_a_op(&mut v_p, &panel.v, Trans::No, 0, 0, m - j0, pw);
                assert!(ops[grp].set(QrPanelOps { vt_p, v_p, t: panel.t }).is_ok());
            }
            assert!(taus_slots[grp].set(panel.taus).is_ok());
            panel_nanos[grp].fetch_add(task_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            TaskOutcome::Done
        } else {
            let op = ops[p].get().expect("Panel(p) publishes before its consumers");
            let outcome = match qr_update_tile(
                &mut tile,
                p,
                j0,
                width_of(p),
                &op.vt_p,
                &op.v_p,
                &op.t,
                j0,
                hook,
            ) {
                TileVerdict::Recompute => TaskOutcome::Retry,
                TileVerdict::Accept => TaskOutcome::Done,
            };
            update_nanos[p].fetch_add(task_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            outcome
        }
    });
    drop(tiles);
    let mut taus = Vec::with_capacity(kmax);
    for slot in taus_slots {
        taus.extend(slot.into_inner().expect("every panel factored"));
    }
    let timing = DagTiming {
        panel_s: panel_nanos.iter().map(|x| x.load(Ordering::Relaxed) as f64 * 1e-9).collect(),
        update_s: update_nanos.iter().map(|x| x.load(Ordering::Relaxed) as f64 * 1e-9).collect(),
        wall_s: t0.elapsed().as_secs_f64(),
    };
    (QrFactors { qr, taus }, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_matrix;
    use crate::verify::qr_residual;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn householder_annihilates_tail() {
        let mut x = vec![3.0, 4.0];
        let tau = householder(&mut x);
        let beta = x[0];
        assert!((beta.abs() - 5.0).abs() < 1e-12);
        assert!(tau > 0.0 && tau <= 2.0);
        // H x should equal [beta, 0]: check via explicit application.
        let v = [1.0, x[1]];
        let orig = [3.0, 4.0];
        let w = tau * (v[0] * orig[0] + v[1] * orig[1]);
        let h0 = orig[0] - w * v[0];
        let h1 = orig[1] - w * v[1];
        assert!((h0 - beta).abs() < 1e-12);
        assert!(h1.abs() < 1e-12);
    }

    #[test]
    fn householder_zero_tail_is_identity() {
        let mut x = vec![2.0, 0.0, 0.0];
        let tau = householder(&mut x);
        assert_eq!(tau, 0.0);
        assert_eq!(x[0], 2.0, "x[0] keeps alpha when the tail is already zero");
    }

    #[test]
    fn qr_reconstructs_square_random_matrices() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for n in [5, 16, 33] {
            let a = random_matrix(&mut rng, n, n);
            let f = qr_blocked(&a, 8);
            assert!(qr_residual(&a, &f) < 1e-10, "QR residual too large for n={n}");
            // Q is orthogonal.
            let q = f.q();
            let qtq = gemm(&q, Trans::Yes, &q, Trans::No);
            assert!(qtq.approx_eq(&Matrix::identity(n), 1e-10));
            // R is upper triangular with the same values as the compact storage.
            let r = f.r();
            for i in 0..n {
                for j in 0..n {
                    if i > j {
                        assert_eq!(r.get(i, j), 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn qr_handles_tall_matrices() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let a = random_matrix(&mut rng, 40, 12);
        let f = qr_blocked(&a, 5);
        assert!(qr_residual(&a, &f) < 1e-10);
        assert_eq!(f.taus.len(), 12);
    }

    #[test]
    fn blocked_matches_unblocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let a = random_matrix(&mut rng, 24, 24);
        let blocked = qr_blocked(&a, 6);
        let unblocked = qr_blocked(&a, 24);
        // R factors must agree up to sign conventions — with the same elementary
        // reflector convention they agree exactly.
        assert!(blocked.r().approx_eq(&unblocked.r(), 1e-9));
    }

    #[test]
    fn apply_q_and_q_transpose_are_inverses() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let a = random_matrix(&mut rng, 12, 12);
        let f = qr_blocked(&a, 4);
        let x = random_matrix(&mut rng, 12, 3);
        let mut y = x.clone();
        f.apply_q(&mut y);
        f.apply_q_transpose(&mut y);
        assert!(y.approx_eq(&x, 1e-10));
    }

    #[test]
    fn form_t_is_bitwise_the_panel_t() {
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        // Single leaves, one split past the leaf, and several levels; panels at offsets
        // with a tau prefix already in the vector, on square and tall inputs — taller
        // than the packed core's inner-dimension block, so the Gram sums span chunks.
        let shapes = [(9, 9, 0, 1), (40, 40, 3, 16), (70, 50, 5, 17), (130, 130, 2, 128)];
        for (m, n, j0, nb) in shapes.into_iter().chain([(600, 150, 7, 131)]) {
            let a0 = random_matrix(&mut rng, m, n);
            let mut a = a0.clone();
            let mut taus = vec![0.5; j0];
            let (v, t) = factor_panel_wy(&mut a, j0, nb, &mut taus);
            assert_eq!(taus.len(), j0 + nb, "taus are appended m={m} j0={j0} nb={nb}");
            assert_eq!(form_t(&a, j0, nb, &taus), t, "T differs m={m} j0={j0} nb={nb}");
            assert_eq!(extract_reflectors(&a, j0, nb), v, "V differs m={m} j0={j0} nb={nb}");
            let (mut b, mut fresh) = (a0.clone(), Vec::new());
            panel_factor(&mut b, j0, nb, &mut fresh);
            assert_eq!(b, a, "panel_factor stores other bits m={m} j0={j0} nb={nb}");
            assert_eq!(fresh, taus[j0..], "panel_factor taus m={m} j0={j0} nb={nb}");
        }
    }

    #[test]
    fn iteration_count() {
        assert_eq!(num_iterations(30720, 512), 60);
    }

    #[test]
    fn tiled_is_bit_identical_to_blocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        // Square, tall, and wide shapes, with tail panels and oversized blocks.
        for (m, n, b) in [(1, 1, 1), (16, 16, 8), (33, 33, 8), (40, 12, 5), (12, 30, 5), (24, 24, 64)] {
            let a = random_matrix(&mut rng, m, n);
            let sync = qr_blocked(&a, b);
            let tiled = qr_tiled(&a, b);
            assert_eq!(sync.taus, tiled.taus, "taus differ m={m} n={n} b={b}");
            assert_eq!(sync.qr, tiled.qr, "factors differ m={m} n={n} b={b}");
        }
    }

    #[test]
    fn dag_is_bit_identical_to_blocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(36);
        // Square, tall, and wide shapes, with tail panels and oversized blocks. The
        // wide shapes exercise trailing-only groups past the kmax boundary.
        for (m, n, b) in [(1, 1, 1), (16, 16, 8), (33, 33, 8), (40, 12, 5), (12, 30, 5), (24, 24, 64)] {
            let a = random_matrix(&mut rng, m, n);
            let sync = qr_blocked(&a, b);
            let dag = qr_dag(&a, b);
            assert_eq!(sync.taus, dag.taus, "taus differ m={m} n={n} b={b}");
            assert_eq!(sync.qr, dag.qr, "factors differ m={m} n={n} b={b}");
            for seed in [0u64, 1, 2] {
                let (replayed, timing) =
                    qr_dag_with(&a, b, &(), DagExecution::Replay { seed });
                assert_eq!(sync.taus, replayed.taus, "replay taus m={m} n={n} b={b} seed={seed}");
                assert_eq!(sync.qr, replayed.qr, "replay differs m={m} n={n} b={b} seed={seed}");
                assert_eq!(timing.panel_s.len(), n.min(m).div_ceil(b));
            }
        }
    }
}
