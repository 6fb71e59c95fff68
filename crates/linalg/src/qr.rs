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
use crate::dag::{Checkpoint, DagExecution, DagTiming, FactorGraph, TileGraph, TileTasks};
use crate::matrix::{Block, Matrix};
use crate::task::{
    panel_attempt, restore_rows, snapshot_rows, StepTiming, TileCols, TileVerdict, TrailingHook,
};
use std::convert::Infallible;
use std::ops::Range;

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
// The tile task graph (see `crate::dag`): one iteration at a time, or all at once.
// =======================================================================================

/// Factor the diagonal QR panel held in `tile` (rows `[row0, m)`) on an extracted copy
/// and write it back; returns its `tau`s, explicit reflectors `V` and compact-WY `T`.
/// On wide matrices the partition clips panel groups at `min(m, n)`, so the group is
/// exactly the panel.
fn factor_panel_tile(tile: &mut TileCols<'_>, row0: usize) -> (Vec<f64>, Matrix, Matrix) {
    let (m, pw) = (tile.rows(), tile.width());
    let mut panel = crate::task::extract_cols(&tile.cols, row0, m);
    let mut taus = Vec::with_capacity(pw);
    let (v, t) = factor_panel_wy(&mut panel, 0, pw, &mut taus);
    for (j, col) in tile.cols.iter_mut().enumerate() {
        col[row0..].copy_from_slice(panel.col(j));
    }
    (taus, v, t)
}

/// One QR trailing tile task of iteration `k`: the tile's slice of the compact-WY
/// block-reflector application `C ← (I − V Tᵀ Vᵀ) C` over rows `[j0, m)`, then the
/// trailing hook over the same rows — the full row span the reflector writes, because
/// rows `[j0, j0 + nb)` of the trailing columns become final `R` entries this
/// iteration and are never revisited (a hook that skipped them would leave them
/// permanently unchecked). `V` arrives pre-packed in both orientations (`vt_p` for
/// `Vᵀ C`, `v_p` for `C − V W`), shared by every tile task of the iteration.
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
    hook: &dyn TrailingHook,
) -> TileVerdict {
    let snap = hook.wants_snapshots().then(|| snapshot_rows(&tile.cols, j0, tile.width()));
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
        hook.after_tile_update(iter, col0, j0, &mut sub)
    };
    if verdict == TileVerdict::Recompute {
        if let Some(snap) = &snap {
            restore_rows(&mut tile.cols, j0, snap);
            return TileVerdict::Recompute;
        }
    }
    TileVerdict::Accept
}

/// QR's tile tasks: the lookahead panel and the block-reflector update. A panel never
/// fails, so the error type is uninhabited.
struct QrTasks;

/// What `Panel(p)` publishes: its `tau`s, its reflectors `V` pre-packed in both GEMM
/// orientations and its compact-WY `T`, shared by all of iteration `p`'s update tasks.
struct QrPanel {
    taus: Vec<f64>,
    vt_p: PackedA,
    v_p: PackedA,
    t: Matrix,
}

impl TileTasks<f64> for QrTasks {
    /// The panel's `tau`s, explicit reflectors `V` and compact-WY `T`.
    type Factored = (Vec<f64>, Matrix, Matrix);
    type Panel = QrPanel;
    type Error = Infallible;

    fn panel(
        &self,
        tile: &mut TileCols<'_>,
        iter: usize,
        hook: &dyn TrailingHook,
    ) -> Option<Result<Self::Factored, Infallible>> {
        let row0 = tile.col0;
        panel_attempt(tile, iter, hook, |tile| Ok(factor_panel_tile(tile, row0)))
    }

    fn publish(&self, tile: &TileCols<'_>, (taus, v, t): Self::Factored) -> QrPanel {
        let (row0, pw, m) = (tile.col0, tile.width(), tile.rows());
        let (mut vt_p, mut v_p) = (PackedA::default(), PackedA::default());
        repack_a_op(&mut vt_p, &v, Trans::Yes, 0, 0, pw, m - row0);
        repack_a_op(&mut v_p, &v, Trans::No, 0, 0, m - row0, pw);
        QrPanel { taus, vt_p, v_p, t }
    }

    fn update(
        &self,
        tile: &mut TileCols<'_>,
        p: usize,
        j0: usize,
        nb: usize,
        panel: &QrPanel,
        hook: &dyn TrailingHook,
    ) -> TileVerdict {
        qr_update_tile(tile, p, j0, nb, &panel.vt_p, &panel.v_p, &panel.t, hook)
    }
}

/// Householder QR's tile task graph (see [`crate::dag`]), one iteration at a time:
/// the stepped driver, and the state [`qr_dag_with`] runs whole. Stepping through
/// every iteration in order produces factors (`qr` storage and `tau`s)
/// **bit-identical** to [`qr_blocked`] and [`qr_dag_with`] with the same block size,
/// at any thread count; each step reports its measured [`StepTiming`].
pub struct QrTiledStepper(TileGraph<f64, QrTasks>);

impl QrTiledStepper {
    /// Copy `a` and factor panel 0, the prologue every run pays before its first
    /// trailing update.
    pub fn new(a: &Matrix, block: usize) -> Self {
        let label = format!("qr m={} n={} b={block}", a.rows(), a.cols());
        let kmax = a.rows().min(a.cols());
        let mut graph = TileGraph::new(QrTasks, a.clone(), kmax, block, label);
        let Ok(()) = graph.prologue();
        Self(graph)
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
    pub fn step(&mut self, k: usize, hook: &dyn TrailingHook) -> StepTiming {
        let Ok(timing) = self.0.step(k, hook);
        timing
    }

    /// Package the factors after the final step.
    pub fn into_factors(self) -> QrFactors {
        let (qr, panels, _) = self.0.into_parts();
        QrFactors { qr, taus: panels.flat_map(|p| p.taus).collect() }
    }
}

impl FactorGraph for QrTiledStepper {
    type Error = Infallible;

    fn run(
        &mut self,
        iters: Range<usize>,
        hook: &dyn TrailingHook,
        exec: DagExecution,
    ) -> Result<f64, Infallible> {
        self.0.run(iters, hook, exec)
    }

    fn timing(&self) -> &DagTiming {
        self.0.timing()
    }

    fn checkpoint(&self) -> Checkpoint {
        self.0.checkpoint()
    }

    fn restore(&mut self, snap: &Checkpoint) {
        self.0.restore(snap)
    }
}

/// Dependency-driven DAG Householder QR with depth-unbounded panel lookahead.
///
/// Same math, same bits as [`qr_blocked`] with the same block size, at any thread
/// count and under any task schedule; the per-iteration barrier is replaced by
/// per-tile dependency counters (see [`crate::dag`]). On wide matrices
/// (`n > min(m, n)`) the fixed column partition places a group boundary at
/// `min(m, n)`, so panel groups are exactly panel-wide, and the trailing-only groups
/// past it take every iteration's update (trailing columns are independent through
/// the compact-WY GEMMs).
pub fn qr_dag(a: &Matrix, block: usize) -> QrFactors {
    qr_dag_with(a, block, &(), DagExecution::Pool).0
}

/// [`qr_dag`] with a [`TrailingHook`] fused into every trailing tile task and an
/// explicit [`DagExecution`] mode; also returns the per-task measured [`DagTiming`]:
/// [`QrTiledStepper::new`], then every iteration as one graph.
pub fn qr_dag_with(
    a: &Matrix,
    block: usize,
    hook: &dyn TrailingHook,
    exec: DagExecution,
) -> (QrFactors, DagTiming) {
    let mut graph = QrTiledStepper::new(a, block);
    let Ok(_) = graph.run(0..graph.iterations(), hook, exec);
    let timing = graph.timing().clone();
    (graph.into_factors(), timing)
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
    fn stepped_is_bit_identical_to_blocked() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        // Square, tall, and wide shapes, with tail panels and oversized blocks.
        for (m, n, b) in [(1, 1, 1), (16, 16, 8), (33, 33, 8), (40, 12, 5), (12, 30, 5), (24, 24, 64)] {
            let a = random_matrix(&mut rng, m, n);
            let sync = qr_blocked(&a, b);
            let mut stepper = QrTiledStepper::new(&a, b);
            for k in 0..stepper.iterations() {
                stepper.step(k, &());
            }
            let stepped = stepper.into_factors();
            assert_eq!(sync.taus, stepped.taus, "taus differ m={m} n={n} b={b}");
            assert_eq!(sync.qr, stepped.qr, "factors differ m={m} n={n} b={b}");
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
