//! Checksum encodings and error detection/correction.
//!
//! The paper (Figure 6) distinguishes two checksum schemes:
//!
//! * **single-side checksum** — the matrix (block) is encoded along one dimension only.
//!   Cheaper, but it can only detect and correct 0D (single-element) error patterns;
//! * **full checksum** — both dimensions are encoded, which additionally covers 1D
//!   (row/column) error patterns at higher overhead.
//!
//! Both carry *two* checksum vectors per encoded direction, the classic
//! Huang–Abraham construction: an unweighted sum `Σ_i a_ij` and a weighted sum
//! `Σ_i w_i a_ij` with `w_i = i + 1`. The ratio of the two discrepancies locates the
//! corrupted index, and the unweighted discrepancy is the correction value.
//!
//! [`ChecksumScheme::Multi`] generalizes the construction into a **Vandermonde code
//! family**: an order-`t` code carries `2t` check vectors per direction, where vector
//! `p` uses the power weights `w_p(i) = (i + 1)^p` (`p = 0` is the unweighted sum,
//! `p = 1` the classic weighted sum). The discrepancies of one line are then the power
//! moments `S_p = Σ_j m_j x_j^p` of the error magnitudes `m_j` at nodes `x_j = i_j + 1`,
//! and `2t` moments locate and correct up to `t` simultaneous errors per line (Prony's
//! method: the error locator polynomial satisfies a linear recurrence over the
//! syndromes, and its roots must be the integer nodes).
//!
//! **One decoder.** The paper's two schemes are the order-1 code: `Full` is `Multi(1)`,
//! and `SingleSide` is the same code with no row direction. Every scheme verifies
//! through one decoder at `t = `[`ChecksumScheme::correctable_per_line`]: a column pass,
//! a row pass over what the columns left (a full row is one error per column, a full
//! column one error per row), and an acceptance check — a tile whose data changed is
//! accepted only if every column and every row then verifies; anything else is
//! uncorrectable and left to recovery.
//!
//! **One guard.** The decoder trusts the stored check vectors, so a strike that lands
//! in the vectors themselves would make it "correct" healthy data against garbage.
//! [`BlockChecksums`] therefore carries an exact hash of its vectors, taken whenever
//! encode or the GEMM update writes them and compared before decoding: a mismatch
//! reports the tile uncorrectable ([`VerifyEventKind::ChecksumGuard`]) and leaves the
//! data untouched, under every scheme.

use bsr_linalg::blas1::{axpy, dot};
use bsr_linalg::matrix::{Block, Matrix};
use serde::{Deserialize, Serialize};

/// Fused accumulation of every power-weighted sum of a slice in one pass:
/// `acc[p] += Σ_i (i+1)^p · v_i` for all `p < acc.len()`.
///
/// For `acc.len() == 2` this performs the exact additions (same order, same values)
/// of the classic fused unweighted + index-weighted pass, so the two-vector
/// checksums of `SingleSide` / `Full` are bit-identical to the classic construction.
#[inline]
fn accumulate_power_sums(x: &[f64], acc: &mut [f64]) {
    for (i, &v) in x.iter().enumerate() {
        let node = (i + 1) as f64;
        let mut w = 1.0;
        for a in acc.iter_mut() {
            *a += w * v;
            w *= node;
        }
    }
}

/// Which checksum encoding is applied to a block (paper Figure 6, extended with the
/// Vandermonde multi-error family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChecksumScheme {
    /// No fault tolerance.
    None,
    /// Column (single-side) checksums only: detects/corrects 0D errors.
    SingleSide,
    /// Column + row checksums: detects/corrects 0D and 1D errors.
    Full,
    /// Order-`t` Vandermonde code on both directions: `2t` check vectors per side
    /// (power weights `(i+1)^p`, `p = 0..2t`), locating and correcting up to `t`
    /// simultaneous errors per column and per row — including multi-strike patterns
    /// that defeat [`ChecksumScheme::Full`]. `Multi(1)` carries `Full`'s vectors and
    /// decodes exactly like it.
    Multi(u8),
}

impl ChecksumScheme {
    /// Per-line correction capability `t`: how many simultaneous errors in one
    /// column (or row, for both-direction schemes) the code locates and corrects.
    pub fn correctable_per_line(&self) -> usize {
        match self {
            ChecksumScheme::None => 0,
            ChecksumScheme::SingleSide | ChecksumScheme::Full => 1,
            ChecksumScheme::Multi(t) => usize::from((*t).max(1)),
        }
    }

    /// Number of column-direction check vectors the scheme carries.
    pub fn column_vectors(&self) -> usize {
        match self {
            ChecksumScheme::None => 0,
            ChecksumScheme::SingleSide | ChecksumScheme::Full => 2,
            ChecksumScheme::Multi(t) => 2 * usize::from((*t).max(1)),
        }
    }

    /// Number of row-direction check vectors the scheme carries.
    pub fn row_vectors(&self) -> usize {
        match self {
            ChecksumScheme::None | ChecksumScheme::SingleSide => 0,
            ChecksumScheme::Full => 2,
            ChecksumScheme::Multi(t) => 2 * usize::from((*t).max(1)),
        }
    }
}

/// Base relative tolerance used when comparing recomputed and stored checksums.
/// Every comparison scales this by the magnitude of the check vector being compared
/// (see [`vector_scale`]) and by the vector's weight order (see [`rel_tol`]), so
/// verification stays robust across matrix scales *and* code orders: an order-`p`
/// vector accumulates `(i+1)^p`-weighted terms whose floating-point drift grows with
/// both the block magnitude and `p`, which a fixed absolute threshold misclassifies.
const REL_TOL: f64 = 1e-6;

/// Relative tolerance for the check vector of weight order `p` (weights `(i+1)^p`):
/// higher-order vectors take proportionally more roundoff per element.
fn rel_tol(order: usize) -> f64 {
    REL_TOL * (order as f64 + 1.0)
}

/// Magnitude scale of one stored/recomputed check-vector pair of weight order
/// `order`, for a line of `line_len` elements with data magnitude `amax`
/// (`max |a_ij|` over the verified tile). The scale is the larger of
///
/// * the check values themselves (`max |stored|, |actual|`), and
/// * `amax · line_len^order` — the magnitude of the *terms* the order-`order`
///   vector accumulates. When a line's entries cancel (sum ≈ 0), the roundoff of
///   the accumulation is still proportional to the term magnitudes, so a tolerance
///   scaled only by the near-zero checksum value misclassifies healthy blocks.
///
/// Floored at 1 so near-zero blocks keep an absolute tolerance.
fn vector_scale(stored: &[f64], actual: &[f64], amax: f64, line_len: usize, order: usize) -> f64 {
    let m = |v: &[f64]| v.iter().fold(0.0_f64, |a, &x| a.max(x.abs()));
    m(stored)
        .max(m(actual))
        .max(amax * (line_len.max(1) as f64).powi(order as i32))
        .max(1.0)
}

/// `max |a_ij|` over a tile given as per-column slices.
fn tile_max_abs(cols: &[&mut [f64]]) -> f64 {
    cols.iter()
        .flat_map(|c| c.iter())
        .fold(0.0_f64, |a, &v| a.max(v.abs()))
}

/// Column-direction checksums of a block: `checks[p][j] = Σ_i (i+1)^p a_ij`, one
/// value per column `j` and weight order `p`. `SingleSide` / `Full` carry two vectors
/// (`p = 0` unweighted, `p = 1` index-weighted); an order-`t` [`ChecksumScheme::Multi`]
/// code carries `2t`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnChecksums {
    /// The check vectors, outer index = weight order `p`.
    pub checks: Vec<Vec<f64>>,
}

impl ColumnChecksums {
    /// The unweighted column sums (weight order 0).
    pub fn sum(&self) -> &[f64] {
        &self.checks[0]
    }

    /// The row-index-weighted column sums (weight order 1).
    pub fn weighted(&self) -> &[f64] {
        &self.checks[1]
    }
}

/// Row-direction checksums of a block: `checks[p][i] = Σ_j (j+1)^p a_ij`, one value
/// per row `i` and weight order `p`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowChecksums {
    /// The check vectors, outer index = weight order `p`.
    pub checks: Vec<Vec<f64>>,
}

impl RowChecksums {
    /// The unweighted row sums (weight order 0).
    pub fn sum(&self) -> &[f64] {
        &self.checks[0]
    }

    /// The column-index-weighted row sums (weight order 1).
    pub fn weighted(&self) -> &[f64] {
        &self.checks[1]
    }
}

/// Checksums of one matrix block under a given scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockChecksums {
    /// The region of the matrix these checksums describe.
    pub block: Block,
    /// Scheme in force.
    pub scheme: ChecksumScheme,
    /// Column checksums (present unless the scheme is `None`).
    pub columns: Option<ColumnChecksums>,
    /// Row checksums (present for `Full` and `Multi`).
    pub rows: Option<RowChecksums>,
    /// [`checksum_guard`] of the vectors as encode or the GEMM update last wrote them.
    guard: u64,
}

/// What one verification discrepancy turned out to be.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum VerifyEventKind {
    /// Single element of one column corrected by the column pass.
    Corrected0d,
    /// Multiple elements of one column corrected by the order-`t` Vandermonde code.
    CorrectedKCol,
    /// Elements of one row corrected by the row pass (the cross-direction rescue for
    /// columns holding more than `t` strikes, e.g. a wiped column).
    CorrectedKRow,
    /// Detected but beyond the scheme's correction capability.
    Uncorrectable,
    /// The check vectors themselves no longer match the hash taken when they were
    /// written: decoding was skipped and the tile left as is (its checksums are
    /// untrusted).
    ChecksumGuard,
}

/// One located verification discrepancy: global coordinates of (the first element
/// of) the affected region plus its classification. Line events carry the corrected
/// line's first affected element; uncorrectable events carry best-effort anchors.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct VerifyEvent {
    /// Global row of the (first) affected element.
    pub row: usize,
    /// Global column of the (first) affected element.
    pub col: usize,
    /// Classification.
    pub kind: VerifyEventKind,
}

/// Outcome of verifying (and correcting) one block against its checksums.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyOutcome {
    /// Number of columns corrected at a single element.
    pub corrected_0d: usize,
    /// Number of multi-element column corrections and of row-pass corrections.
    pub corrected_k: usize,
    /// Number of discrepancies that could not be attributed/corrected.
    pub uncorrectable: usize,
    /// Located discrepancies with global coordinates, kept in canonical (sorted)
    /// order by [`VerifyOutcome::merge`] so merged outcomes are identical under any
    /// task schedule.
    pub events: Vec<VerifyEvent>,
}

impl VerifyOutcome {
    /// True when the block verified clean or every discrepancy was corrected.
    pub fn is_clean_or_corrected(&self) -> bool {
        self.uncorrectable == 0
    }

    /// Total in-place corrections of any kind.
    pub fn total_corrected(&self) -> usize {
        self.corrected_0d + self.corrected_k
    }

    /// Merge another outcome into this one. The combined event log is re-sorted
    /// into canonical `(row, col, kind)` order, so any merge tree over the same
    /// per-tile outcomes produces the same final log.
    pub fn merge(&mut self, other: &VerifyOutcome) {
        self.corrected_0d += other.corrected_0d;
        self.corrected_k += other.corrected_k;
        self.uncorrectable += other.uncorrectable;
        self.events.extend_from_slice(&other.events);
        self.events.sort_unstable();
    }
}

/// Immutable per-column views of `block` of `m` (the slice form the `_slices` entry
/// points consume; also what the fused tiled-factorization hook hands over directly).
fn col_views(m: &Matrix, block: Block) -> Vec<&[f64]> {
    (0..block.cols)
        .map(|j| m.col_range(block.col + j, block.row, block.row + block.rows))
        .collect()
}

/// Column checksums of a tile given as per-column slices (`cols[j][i]` is tile element
/// `(i, j)`; all slices must share one length), carrying `vectors` power-weight
/// vectors (`vectors = 2` is the classic unweighted + weighted pair).
pub fn encode_column_checksums_slices(cols: &[&[f64]], vectors: usize) -> ColumnChecksums {
    let mut checks = vec![vec![0.0; cols.len()]; vectors];
    let mut acc = vec![0.0; vectors];
    for (j, col) in cols.iter().enumerate() {
        acc.fill(0.0);
        // One fused pass over the contiguous column slice of the tile.
        accumulate_power_sums(col, &mut acc);
        for (p, &a) in acc.iter().enumerate() {
            checks[p][j] = a;
        }
    }
    ColumnChecksums { checks }
}

/// Row checksums of a tile given as per-column slices, carrying `vectors`
/// power-weight vectors.
pub fn encode_row_checksums_slices(cols: &[&[f64]], vectors: usize) -> RowChecksums {
    let rows = cols.first().map_or(0, |c| c.len());
    let mut checks = vec![vec![0.0; rows]; vectors];
    // Row sums accumulate column by column so every sweep is a unit-stride axpy over a
    // contiguous column slice (rather than a strided row walk).
    for (j, col) in cols.iter().enumerate() {
        let node = (j + 1) as f64;
        let mut w = 1.0;
        for vec in checks.iter_mut() {
            axpy(w, col, vec);
            w *= node;
        }
    }
    RowChecksums { checks }
}

/// Encode a tile given as per-column slices under `scheme`; `block` records the tile's
/// coordinates in the enclosing matrix (its `rows`/`cols` must match the slice shape).
pub fn encode_block_slices(cols: &[&[f64]], block: Block, scheme: ChecksumScheme) -> BlockChecksums {
    debug_assert_eq!(block.cols, cols.len());
    debug_assert!(cols.iter().all(|c| c.len() == block.rows));
    let columns = match scheme.column_vectors() {
        0 => None,
        nv => Some(encode_column_checksums_slices(cols, nv)),
    };
    let rows = match scheme.row_vectors() {
        0 => None,
        nv => Some(encode_row_checksums_slices(cols, nv)),
    };
    let mut cs = BlockChecksums { block, scheme, columns, rows, guard: 0 };
    cs.guard = checksum_guard(&cs);
    cs
}

/// Encode `vectors` column check vectors of `block` of `m`.
pub fn encode_column_checksums(m: &Matrix, block: Block, vectors: usize) -> ColumnChecksums {
    encode_column_checksums_slices(&col_views(m, block), vectors)
}

/// Encode `vectors` row check vectors of `block` of `m`.
pub fn encode_row_checksums(m: &Matrix, block: Block, vectors: usize) -> RowChecksums {
    encode_row_checksums_slices(&col_views(m, block), vectors)
}

/// Encode a block under `scheme`.
pub fn encode_block(m: &Matrix, block: Block, scheme: ChecksumScheme) -> BlockChecksums {
    encode_block_slices(&col_views(m, block), block, scheme)
}

/// Update column checksums through a GEMM trailing update `C ← C − L·U` where the
/// checksummed block is `C` (`block.rows × block.cols`), `l` is `block.rows × k` and `u`
/// is `k × block.cols`.
///
/// The order-`p` column checksum of `L·U` is `(w_pᵀ L)·U`, so every check vector can be
/// maintained with one vector-matrix product — `O(vectors · (mk + kn))` total, the
/// "checksum update" cost the paper accounts for in Table 2, staying `O(k·n²)`-free of
/// the `O(n³)` GEMM it protects for every code order.
pub fn update_column_checksums_gemm(cs: &mut ColumnChecksums, l: &Matrix, u: &Matrix) {
    let k = l.cols();
    let nv = cs.checks.len();
    debug_assert_eq!(u.rows(), k);
    debug_assert_eq!(cs.checks[0].len(), u.cols());
    // w_pᵀ L for every order p, one fused pass per column of L.
    let mut wl = vec![vec![0.0; k]; nv];
    let mut acc = vec![0.0; nv];
    for c in 0..k {
        acc.fill(0.0);
        accumulate_power_sums(l.col(c), &mut acc);
        for (wlp, &a) in wl.iter_mut().zip(&acc) {
            wlp[c] = a;
        }
    }
    // (w_pᵀL)·U: one dot per column of U against each length-k vector.
    for j in 0..u.cols() {
        let ucol = u.col(j);
        for (p, wlp) in wl.iter().enumerate() {
            cs.checks[p][j] -= dot(wlp, ucol);
        }
    }
}

/// Update row checksums through the same GEMM trailing update `C ← C − L·U`.
/// The order-`p` row checksum of `L·U` is `L·(U w_p)`.
pub fn update_row_checksums_gemm(cs: &mut RowChecksums, l: &Matrix, u: &Matrix) {
    let k = l.cols();
    let nv = cs.checks.len();
    debug_assert_eq!(u.rows(), k);
    debug_assert_eq!(cs.checks[0].len(), l.rows());
    // U·w_p for every order p, accumulated as unit-stride axpys over U's columns.
    let mut uw = vec![vec![0.0; k]; nv];
    for j in 0..u.cols() {
        let ucol = u.col(j);
        let node = (j + 1) as f64;
        let mut w = 1.0;
        for uwp in uw.iter_mut() {
            axpy(w, ucol, uwp);
            w *= node;
        }
    }
    // L·(U w_p): one axpy per column of L into each row-checksum vector.
    for c in 0..k {
        let lcol = l.col(c);
        for (p, uwp) in uw.iter().enumerate() {
            axpy(-uwp[c], lcol, &mut cs.checks[p]);
        }
    }
}

/// Update the checksums of a block through a GEMM trailing update `C ← C − L·U`,
/// and take the guard hash of the updated vectors.
pub fn update_block_checksums_gemm(cs: &mut BlockChecksums, l: &Matrix, u: &Matrix) {
    if let Some(cols) = cs.columns.as_mut() {
        update_column_checksums_gemm(cols, l, u);
    }
    if let Some(rows) = cs.rows.as_mut() {
        update_row_checksums_gemm(rows, l, u);
    }
    cs.guard = checksum_guard(cs);
}

/// Exact (bit-level) hash over every check vector of a block. [`BlockChecksums`]
/// stores it whenever encode or the GEMM update writes the vectors, and verification
/// compares it before decoding: a strike in the vectors themselves — which the decoder,
/// trusting them, would "correct" healthy data against — shows up as a mismatch.
fn checksum_guard(cs: &BlockChecksums) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let vectors = cs.columns.iter().map(|c| &c.checks).chain(cs.rows.iter().map(|r| &r.checks));
    for v in vectors.flatten().flatten() {
        h = h.wrapping_mul(31).wrapping_add(v.to_bits());
    }
    h
}

/// Verify the block of `m` against `cs` and correct what the scheme allows.
///
/// Every scheme decodes with one order-`t` code (`t` =
/// [`ChecksumScheme::correctable_per_line`]):
///
/// * the stored vectors must still match their guard hash, or the tile is reported
///   uncorrectable ([`VerifyEventKind::ChecksumGuard`]) and left untouched;
/// * each column corrects up to `t` errors (a 0D error, or one element of each
///   column a corrupted row crosses);
/// * with row vectors (`Full`, `Multi`), rows correct what the column pass could not
///   (a corrupted column is one error per crossing row);
/// * a tile whose data changed is accepted only if every column and every row then
///   verifies; the remaining discrepancies (e.g. 2D patterns, or 1D column patterns
///   under the single-side scheme) are reported as `uncorrectable`.
pub fn verify_and_correct(m: &mut Matrix, cs: &BlockChecksums) -> VerifyOutcome {
    let mut cols: Vec<&mut [f64]> = m.cols_range_mut(cs.block).map(|(_, s)| s).collect();
    verify_and_correct_slices(&mut cols, cs)
}

/// [`verify_and_correct`] over a tile given as per-column mutable slices (`cols[j][i]`
/// is tile element `(i, j)`). This is the form the fused tiled-factorization hook
/// calls from inside a trailing-update task, where the task owns exactly its own
/// column slices and nothing else of the matrix.
pub fn verify_and_correct_slices(cols: &mut [&mut [f64]], cs: &BlockChecksums) -> VerifyOutcome {
    let block = cs.block;
    debug_assert_eq!(block.cols, cols.len());
    debug_assert!(cols.iter().all(|c| c.len() == block.rows));
    match cs.scheme {
        ChecksumScheme::None => VerifyOutcome::default(),
        _ if checksum_guard(cs) != cs.guard => VerifyOutcome {
            uncorrectable: 1,
            events: vec![VerifyEvent {
                row: block.row,
                col: block.col,
                kind: VerifyEventKind::ChecksumGuard,
            }],
            ..VerifyOutcome::default()
        },
        scheme => decode_tile(cols, cs, scheme.correctable_per_line()),
    }
}

/// One decoded line hypothesis: in-line indices and the additive corrections.
struct LineFix {
    /// In-line element indices (sorted ascending).
    positions: Vec<usize>,
    /// Correction to *add* at each position (the negated error magnitude).
    magnitudes: Vec<f64>,
}

/// Solve a small dense linear system `A x = b` in place by Gaussian elimination with
/// partial pivoting; `b` receives the solution. Returns false on (numerical)
/// singularity — for the decoder that simply means "fewer errors than hypothesized",
/// and the caller moves on.
fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) -> bool {
    let n = b.len();
    for k in 0..n {
        let mut piv = k;
        let mut best = a[k][k].abs();
        for (r, row) in a.iter().enumerate().take(n).skip(k + 1) {
            if row[k].abs() > best {
                piv = r;
                best = row[k].abs();
            }
        }
        // NaN pivots count as singular, like an exact zero.
        if best.is_nan() || best <= 0.0 {
            return false;
        }
        a.swap(k, piv);
        b.swap(k, piv);
        let (pivot_rows, elim_rows) = a.split_at_mut(k + 1);
        let pivot = &pivot_rows[k];
        let (b_piv, b_elim) = b.split_at_mut(k + 1);
        let bk = b_piv[k];
        for (row, br) in elim_rows.iter_mut().zip(b_elim.iter_mut()).take(n - k - 1) {
            let f = row[k] / pivot[k];
            for (x, &p) in row[k..n].iter_mut().zip(&pivot[k..n]) {
                *x -= f * p;
            }
            *br -= f * bk;
        }
    }
    for k in (0..n).rev() {
        let mut s = b[k];
        for c in k + 1..n {
            s -= a[k][c] * b[c];
        }
        b[k] = s / a[k][k];
    }
    true
}

/// Decode one line's syndromes `d[p] = Σ_j m_j x_j^p` (`x_j = index + 1`) for up to
/// `t` simultaneous errors: Prony's method over the `2t` power moments. For each
/// hypothesized error count `e = 1..=t`, the error-locator polynomial's coefficients
/// come from the Hankel recurrence the syndromes must satisfy, its roots are matched
/// against the integer nodes `1..=len`, and the magnitudes from the leading `e`
/// moments. A hypothesis is accepted only when it explains **every** syndrome within
/// tolerance — which rejects aliased locations and error counts beyond `t`.
fn decode_line(d: &[f64], len: usize, t: usize, tols: &[f64]) -> Option<LineFix> {
    let nv = d.len();
    for e in 1..=t.min(len) {
        // Locator coefficients c: Σ_{q<e} c_q S_{p+q} = −S_{p+e} for p = 0..e.
        let mut a: Vec<Vec<f64>> = (0..e).map(|p| (0..e).map(|q| d[p + q]).collect()).collect();
        let mut c: Vec<f64> = (0..e).map(|p| -d[p + e]).collect();
        if !solve_dense(&mut a, &mut c) {
            continue;
        }
        // Λ(z) = z^e + c_{e−1} z^{e−1} + … + c_0, evaluated by Horner's rule; the
        // e candidate nodes with the smallest |Λ| are the hypothesized locations
        // (true roots are integers, so no root polishing is needed — the final
        // consistency check rejects wrong picks).
        let eval = |x: f64| {
            let mut acc = 1.0;
            for q in (0..e).rev() {
                acc = acc * x + c[q];
            }
            acc
        };
        let mut cand: Vec<(f64, usize)> =
            (1..=len).map(|x| (eval(x as f64).abs(), x - 1)).collect();
        cand.sort_by(|l, r| l.0.partial_cmp(&r.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut positions: Vec<usize> = cand[..e].iter().map(|&(_, i)| i).collect();
        positions.sort_unstable();
        // Magnitudes from the Vandermonde system over the first e moments.
        let mut v: Vec<Vec<f64>> = (0..e)
            .map(|p| positions.iter().map(|&i| ((i + 1) as f64).powi(p as i32)).collect())
            .collect();
        let mut mags: Vec<f64> = d[..e].to_vec();
        if !solve_dense(&mut v, &mut mags) {
            continue;
        }
        let consistent = (0..nv).all(|p| {
            let mut recon = 0.0;
            let mut mag_scale = 0.0;
            for (&i, &m) in positions.iter().zip(&mags) {
                let term = m * ((i + 1) as f64).powi(p as i32);
                recon += term;
                mag_scale += term.abs();
            }
            // Allow the reconstruction's own cancellation roundoff on top of the
            // per-vector tolerance (written so a NaN solution always fails).
            (recon - d[p]).abs() <= tols[p] + 1e-9 * mag_scale
        });
        if consistent {
            return Some(LineFix { positions, magnitudes: mags });
        }
    }
    None
}

/// Read-only views of a tile's columns, the form the encoders take.
fn views<'a>(cols: &'a [&mut [f64]]) -> Vec<&'a [f64]> {
    cols.iter().map(|c| &**c).collect()
}

/// Per-vector mismatch tolerances of one direction (lines of `line_len` elements).
fn tolerances(stored: &[Vec<f64>], actual: &[Vec<f64>], amax: f64, line_len: usize) -> Vec<f64> {
    (0..stored.len())
        .map(|p| rel_tol(p) * vector_scale(&stored[p], &actual[p], amax, line_len, p))
        .collect()
}

/// True when any syndrome is out of its tolerance (NaN included).
fn dirty(d: &[f64], tols: &[f64]) -> bool {
    d.iter().zip(tols).any(|(v, tol)| v.is_nan() || v.abs() > *tol)
}

/// Write line `k`'s syndromes `stored − actual` into `d` and test them with
/// [`dirty`]. A clean line costs no allocation.
fn syndrome(stored: &[Vec<f64>], actual: &[Vec<f64>], k: usize, tols: &[f64], d: &mut [f64]) -> bool {
    for (p, dp) in d.iter_mut().enumerate() {
        *dp = stored[p][k] - actual[p][k];
    }
    dirty(d, tols)
}

/// Apply a decoded fix to tile column `j` and tally it (one element is a 0D fix).
fn fix_column(col: &mut [f64], fix: &LineFix, block: Block, j: usize, out: &mut VerifyOutcome) {
    for (&i, &m) in fix.positions.iter().zip(&fix.magnitudes) {
        col[i] += m;
    }
    let kind = if fix.positions.len() == 1 {
        out.corrected_0d += 1;
        VerifyEventKind::Corrected0d
    } else {
        out.corrected_k += 1;
        VerifyEventKind::CorrectedKCol
    };
    out.events.push(VerifyEvent { row: block.row + fix.positions[0], col: block.col + j, kind });
}

/// The order-`t` decoder every scheme shares (the guard has already vouched for the
/// stored vectors):
///
/// 1. every column is decoded independently (up to `t` errors each — any scatter of
///    `≤ t` strikes per column is absorbed regardless of how many columns are hit);
///    a clean tile ends here;
/// 2. with row vectors, rows decode what the columns left: a column holding more than
///    `t` strikes exposes at most `t` of them per crossing row (e.g. up to `t` wiped
///    lines), and the columns the row pass brought back within capacity decode again;
/// 3. acceptance: every column and every row must now verify; each line that does not
///    is uncorrectable, counted along the direction with more of them.
fn decode_tile(cols: &mut [&mut [f64]], cs: &BlockChecksums, t: usize) -> VerifyOutcome {
    let block = cs.block;
    let (height, width) = (block.rows, block.cols);
    let mut out = VerifyOutcome::default();
    let stored_c = &cs.columns.as_ref().expect("every code carries column checksums").checks;
    let nv = stored_c.len();
    let mut d = vec![0.0; nv];

    let amax = tile_max_abs(cols);
    let actual_c = encode_column_checksums_slices(&views(cols), nv).checks;
    let ctol = tolerances(stored_c, &actual_c, amax, height);
    let mut pending: Vec<usize> = Vec::new();
    for (j, col) in cols.iter_mut().enumerate() {
        if !syndrome(stored_c, &actual_c, j, &ctol, &mut d) {
            continue;
        }
        match decode_line(&d, height, t, &ctol) {
            Some(fix) => fix_column(col, &fix, block, j, &mut out),
            None => pending.push(j),
        }
    }
    if out.events.is_empty() && pending.is_empty() {
        return out; // clean: the guard vouches for the row vectors
    }

    // Row pass over the column-corrected tile, keeping its tolerances for acceptance.
    let mut rows: Option<(&[Vec<f64>], Vec<f64>)> = None;
    if let Some(stored_r) = cs.rows.as_ref().map(|r| &r.checks) {
        let actual_r = encode_row_checksums_slices(&views(cols), nv).checks;
        let rtol = tolerances(stored_r, &actual_r, amax, width);
        // Row-major walk over the column-major tile: `i` must index into every column.
        #[allow(clippy::needless_range_loop)]
        for i in 0..height {
            if !syndrome(stored_r, &actual_r, i, &rtol, &mut d) {
                continue;
            }
            // A row the code cannot decode is residual damage; the acceptance check
            // below is the single accounting site.
            if let Some(fix) = decode_line(&d, width, t, &rtol) {
                for (&j, &m) in fix.positions.iter().zip(&fix.magnitudes) {
                    cols[j][i] += m;
                }
                out.corrected_k += 1;
                out.events.push(VerifyEvent {
                    row: block.row + i,
                    col: block.col + fix.positions[0],
                    kind: VerifyEventKind::CorrectedKRow,
                });
            }
        }
        // Columns the row pass brought back within capacity decode again.
        let mut acc = vec![0.0; nv];
        for &j in &pending {
            acc.fill(0.0);
            accumulate_power_sums(cols[j], &mut acc);
            for (p, dp) in d.iter_mut().enumerate() {
                *dp = stored_c[p][j] - acc[p];
            }
            if !dirty(&d, &ctol) {
                continue; // fully rescued by the row pass
            }
            if let Some(fix) = decode_line(&d, height, t, &ctol) {
                fix_column(cols[j], &fix, block, j, &mut out);
            }
        }
        rows = Some((stored_r, rtol));
    }

    // Acceptance: the decoded tile must verify in every column and every row.
    let actual_c = encode_column_checksums_slices(&views(cols), nv).checks;
    let bad_cols: Vec<usize> =
        (0..width).filter(|&j| syndrome(stored_c, &actual_c, j, &ctol, &mut d)).collect();
    let bad_rows: Vec<usize> = match rows {
        Some((stored_r, rtol)) => {
            let actual_r = encode_row_checksums_slices(&views(cols), nv).checks;
            (0..height).filter(|&i| syndrome(stored_r, &actual_r, i, &rtol, &mut d)).collect()
        }
        None => Vec::new(),
    };
    let anchor = |v: &[usize]| v.first().copied().unwrap_or(0);
    let failed: Vec<(usize, usize)> = if bad_cols.len() >= bad_rows.len() {
        bad_cols.iter().map(|&j| (anchor(&bad_rows), j)).collect()
    } else {
        bad_rows.iter().map(|&i| (i, anchor(&bad_cols))).collect()
    };
    out.uncorrectable += failed.len();
    out.events.extend(failed.into_iter().map(|(i, j)| VerifyEvent {
        row: block.row + i,
        col: block.col + j,
        kind: VerifyEventKind::Uncorrectable,
    }));
    out.events.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsr_linalg::generate::random_matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize) -> (Matrix, Block) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let m = random_matrix(&mut rng, n, n);
        (m, Block::full(n, n))
    }

    #[test]
    fn clean_block_verifies_clean() {
        let (mut m, block) = setup(8);
        let cs = encode_block(&m, block, ChecksumScheme::Full);
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out, VerifyOutcome::default());
        assert!(out.is_clean_or_corrected());
    }

    #[test]
    fn none_scheme_detects_nothing() {
        let (mut m, block) = setup(4);
        let cs = encode_block(&m, block, ChecksumScheme::None);
        m.set(1, 1, 999.0);
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out, VerifyOutcome::default());
        assert_eq!(m.get(1, 1), 999.0, "no correction without checksums");
    }

    #[test]
    fn single_side_corrects_0d_error() {
        let (mut m, block) = setup(8);
        let original = m.clone();
        let cs = encode_block(&m, block, ChecksumScheme::SingleSide);
        m.set(3, 5, m.get(3, 5) + 42.0);
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out.corrected_0d, 1);
        assert_eq!(out.uncorrectable, 0);
        assert!(m.approx_eq(&original, 1e-9));
    }

    #[test]
    fn single_side_cannot_correct_1d_error() {
        let (mut m, block) = setup(8);
        let cs = encode_block(&m, block, ChecksumScheme::SingleSide);
        // Corrupt an entire row: every column has a discrepancy whose located row is the
        // same, so correction actually still works per-column... use a row pattern with
        // two corrupted elements in the SAME column to defeat the single-side scheme.
        m.set(2, 4, m.get(2, 4) + 10.0);
        m.set(6, 4, m.get(6, 4) + 3.0);
        let out = verify_and_correct(&mut m, &cs);
        assert!(out.uncorrectable > 0 || out.corrected_0d == 0);
    }

    #[test]
    fn full_corrects_row_wipe() {
        let (mut m, block) = setup(10);
        let original = m.clone();
        let cs = encode_block(&m, block, ChecksumScheme::Full);
        for j in 0..10 {
            m.set(4, j, m.get(4, j) + (j as f64 + 1.0));
        }
        // One error per column: the column pass corrects each as a single element.
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!((out.corrected_0d, out.corrected_k), (10, 0), "events: {:?}", out.events);
        assert_eq!(out.uncorrectable, 0);
        assert!(m.approx_eq(&original, 1e-9));
    }

    #[test]
    fn full_corrects_column_wipe() {
        let (mut m, block) = setup(10);
        let original = m.clone();
        let cs = encode_block(&m, block, ChecksumScheme::Full);
        for i in 2..9 {
            m.set(i, 7, m.get(i, 7) - 3.5 * i as f64);
        }
        // Seven errors in one column: the row pass corrects each crossing row.
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!((out.corrected_0d, out.corrected_k), (0, 7), "events: {:?}", out.events);
        assert_eq!(out.uncorrectable, 0);
        assert!(m.approx_eq(&original, 1e-9));
    }

    #[test]
    fn full_flags_2d_pattern_as_uncorrectable() {
        let (mut m, block) = setup(10);
        let cs = encode_block(&m, block, ChecksumScheme::Full);
        // Corrupt a 2x2 sub-pattern: two bad rows and two bad columns.
        m.set(1, 2, m.get(1, 2) + 5.0);
        m.set(1, 6, m.get(1, 6) + 7.0);
        m.set(8, 2, m.get(8, 2) + 9.0);
        m.set(8, 6, m.get(8, 6) + 11.0);
        let out = verify_and_correct(&mut m, &cs);
        assert!(out.uncorrectable > 0);
    }

    #[test]
    fn multi_matches_legacy_vectors_for_low_orders() {
        // The first two vectors of any Multi code are bit-identical to the legacy
        // unweighted/weighted pair — the family extends the construction, it does
        // not change it.
        let (m, block) = setup(12);
        let legacy = encode_block(&m, block, ChecksumScheme::Full);
        let multi = encode_block(&m, block, ChecksumScheme::Multi(2));
        let lc = legacy.columns.as_ref().unwrap();
        let mc = multi.columns.as_ref().unwrap();
        assert_eq!(mc.checks.len(), 4);
        assert_eq!(lc.sum(), mc.sum());
        assert_eq!(lc.weighted(), mc.weighted());
        let lr = legacy.rows.as_ref().unwrap();
        let mr = multi.rows.as_ref().unwrap();
        assert_eq!(lr.sum(), mr.sum());
        assert_eq!(lr.weighted(), mr.weighted());
    }

    #[test]
    fn multi_corrects_scattered_strikes_within_capacity() {
        // Three strikes in three different columns of one block: each column holds
        // one, so the column pass absorbs all three.
        let (mut m, block) = setup(12);
        let original = m.clone();
        let cs = encode_block(&m, block, ChecksumScheme::Multi(1));
        m.set(2, 1, m.get(2, 1) + 7.0);
        m.set(9, 5, m.get(9, 5) - 11.0);
        m.set(4, 10, m.get(4, 10) + 3.0);
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out.corrected_0d, 3, "events: {:?}", out.events);
        assert_eq!(out.uncorrectable, 0);
        assert!(m.approx_eq(&original, 1e-7 * (1.0 + original.max_abs())));
    }

    #[test]
    fn multi2_corrects_two_errors_in_one_column() {
        let (mut m, block) = setup(12);
        let original = m.clone();
        let cs = encode_block(&m, block, ChecksumScheme::Multi(2));
        m.set(3, 6, m.get(3, 6) + 5.0);
        m.set(8, 6, m.get(8, 6) - 2.5);
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out.corrected_k, 1, "events: {:?}", out.events);
        assert_eq!(out.uncorrectable, 0);
        assert!(m.approx_eq(&original, 1e-7 * (1.0 + original.max_abs())));
    }

    #[test]
    fn multi2_corrects_the_four_corner_burst_full_cannot() {
        // The 2×2 grid that is uncorrectable-by-construction for Full: each of the
        // two affected columns holds two strikes, within Multi(2)'s per-line budget.
        let (mut m, block) = setup(10);
        let original = m.clone();
        let cs = encode_block(&m, block, ChecksumScheme::Multi(2));
        for (i, j) in [(0, 0), (0, 9), (9, 0), (9, 9)] {
            m.set(i, j, m.get(i, j) * 3.0 + 1.0);
        }
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out.uncorrectable, 0, "events: {:?}", out.events);
        assert_eq!(out.corrected_k, 2);
        assert!(m.approx_eq(&original, 1e-7 * (1.0 + original.max_abs())));
    }

    #[test]
    fn multi_rescues_a_wiped_column_through_the_row_pass() {
        // A fully wiped column exceeds any per-column budget, but every crossing
        // row sees exactly one strike: the row pass restores it element by element.
        let (mut m, block) = setup(10);
        let original = m.clone();
        let cs = encode_block(&m, block, ChecksumScheme::Multi(2));
        for i in 0..10 {
            m.set(i, 4, m.get(i, 4) + 2.0 + i as f64);
        }
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out.uncorrectable, 0, "events: {:?}", out.events);
        assert!(out.corrected_k >= 1);
        assert!(m.approx_eq(&original, 1e-7 * (1.0 + original.max_abs())));
    }

    #[test]
    fn multi_capacity_edge_grid_just_beyond_t_is_uncorrectable() {
        // A (t+1)×(t+1) grid defeats order t (every affected line holds t+1
        // strikes) but is absorbed by order t+1 — the calibration the multi-strike
        // chaos mixes are built on.
        let (mut m, block) = setup(12);
        let original = m.clone();
        let positions = [0usize, 5, 11];
        let mut corrupted = m.clone();
        for &i in &positions {
            for &j in &positions {
                corrupted.set(i, j, corrupted.get(i, j) * 2.0 + 3.0);
            }
        }
        let cs2 = encode_block(&m, block, ChecksumScheme::Multi(2));
        let mut m2 = corrupted.clone();
        let out2 = verify_and_correct(&mut m2, &cs2);
        assert!(out2.uncorrectable > 0, "3×3 grid must defeat Multi(2)");

        let cs3 = encode_block(&m, block, ChecksumScheme::Multi(3));
        m = corrupted;
        let out3 = verify_and_correct(&mut m, &cs3);
        assert_eq!(out3.uncorrectable, 0, "events: {:?}", out3.events);
        assert_eq!(out3.corrected_k, 3);
        assert!(m.approx_eq(&original, 1e-7 * (1.0 + original.max_abs())));
    }

    #[test]
    fn multi_check_vector_strikes_trip_the_guard() {
        // Corrupt stored check values (not data): the guard hash no longer matches,
        // so the tile is uncorrectable and its data bit-identical.
        let (m, block) = setup(10);
        let mut cs = encode_block(&m, block, ChecksumScheme::Multi(2));
        {
            let c = cs.columns.as_mut().unwrap();
            c.checks[1][3] *= 2.0;
            c.checks[2][7] += 123.0;
        }
        {
            let r = cs.rows.as_mut().unwrap();
            r.checks[0][5] -= 77.0;
        }
        let mut verified = m.clone();
        let out = verify_and_correct(&mut verified, &cs);
        assert_eq!(out.uncorrectable, 1, "events: {:?}", out.events);
        assert_eq!(out.events[0].kind, VerifyEventKind::ChecksumGuard);
        assert!(verified == m, "data must be untouched (bit-identical)");
    }

    #[test]
    fn dense_check_strikes_on_one_column_trip_the_guard() {
        // More than t strikes piling onto ONE column's stored checks: no data
        // interpretation explains them, and the guard reports the tile before the
        // decoder could try one.
        let (m, block) = setup(10);
        let mut cs = encode_block(&m, block, ChecksumScheme::Multi(2));
        {
            let c = cs.columns.as_mut().unwrap();
            c.checks[0][4] += 31.0;
            c.checks[1][4] *= -3.0;
            c.checks[2][4] += 500.0;
        }
        let mut verified = m.clone();
        let out = verify_and_correct(&mut verified, &cs);
        assert_eq!(out.uncorrectable, 1, "events: {:?}", out.events);
        assert_eq!(out.events[0].kind, VerifyEventKind::ChecksumGuard);
        assert!(verified == m, "data must be untouched (bit-identical)");
    }

    #[test]
    fn multi1_decodes_exactly_like_full_and_single_side_like_its_columns() {
        // Full is the order-1 code: Multi(1) carries the same vectors and takes the
        // same decoder, so data and outcome agree bit for bit. SingleSide is that
        // code without rows: it corrects a row wipe (one error per column) and
        // cannot correct a column wipe.
        let (m, block) = setup(12);
        let row_wipe = |t: &mut Matrix| (0..12).for_each(|j| t.set(5, j, t.get(5, j) + 3.0));
        let col_wipe = |t: &mut Matrix| (1..9).for_each(|i| t.set(i, 2, t.get(i, 2) * 4.0 + 1.0));
        let grid = |t: &mut Matrix| {
            for (i, j) in [(1, 1), (1, 8), (9, 1), (9, 8)] {
                t.set(i, j, t.get(i, j) - 7.0);
            }
        };
        let patterns: [&dyn Fn(&mut Matrix); 3] = [&row_wipe, &col_wipe, &grid];
        for strike in patterns {
            let run = |scheme| {
                let cs = encode_block(&m, block, scheme);
                let mut t = m.clone();
                strike(&mut t);
                let out = verify_and_correct(&mut t, &cs);
                (t, out)
            };
            let (full, multi1) = (run(ChecksumScheme::Full), run(ChecksumScheme::Multi(1)));
            assert!(full.0 == multi1.0, "data differ");
            assert_eq!(full.1, multi1.1);
        }
        let single = |strike: &dyn Fn(&mut Matrix)| {
            let cs = encode_block(&m, block, ChecksumScheme::SingleSide);
            let mut t = m.clone();
            strike(&mut t);
            (verify_and_correct(&mut t, &cs), t)
        };
        let (out, fixed) = single(&row_wipe);
        assert_eq!((out.corrected_0d, out.uncorrectable), (12, 0), "events: {:?}", out.events);
        assert!(fixed.approx_eq(&m, 1e-9));
        let (out, _) = single(&col_wipe);
        assert_eq!(out.uncorrectable, 1, "events: {:?}", out.events);
    }

    #[test]
    fn multi_checksum_update_through_gemm_matches_reencoding() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let m0 = random_matrix(&mut rng, 12, 12);
        let l = random_matrix(&mut rng, 12, 4);
        let u = random_matrix(&mut rng, 4, 12);
        let block = Block::full(12, 12);
        let mut cs = encode_block(&m0, block, ChecksumScheme::Multi(3));
        let mut m = m0.clone();
        bsr_linalg::blas3::gemm_into_block(
            -1.0,
            &l,
            bsr_linalg::Trans::No,
            &u,
            bsr_linalg::Trans::No,
            1.0,
            &mut m,
            block,
        );
        update_block_checksums_gemm(&mut cs, &l, &u);
        let fresh = encode_block(&m, block, ChecksumScheme::Multi(3));
        for p in 0..6 {
            for j in 0..12 {
                let a = cs.columns.as_ref().unwrap().checks[p][j];
                let b = fresh.columns.as_ref().unwrap().checks[p][j];
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "col p={p} j={j}: {a} vs {b}");
                let a = cs.rows.as_ref().unwrap().checks[p][j];
                let b = fresh.rows.as_ref().unwrap().checks[p][j];
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "row p={p} i={j}: {a} vs {b}");
            }
        }
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out, VerifyOutcome::default());
    }

    #[test]
    fn scaled_tolerance_keeps_large_norm_blocks_clean_after_updates() {
        // Regression for the fixed-REL_TOL misclassification: a block whose plain
        // column sums cancel to ~0 while its entries (and therefore its weighted
        // checksums) are huge. The old rule scaled *every* comparison by the
        // magnitude of the unweighted sums, so the weighted vectors' GEMM-update
        // drift (~|a|·n·ε, far above 1e-6 · max|sum|) flagged a healthy block as
        // corrupt. Per-vector, order-aware scaling keeps it clean.
        let n = 32;
        let block = Block::full(n, n);
        let mut m0 = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                // Exactly alternating ±huge entries: the plain column sums cancel to
                // zero while the accumulation's roundoff stays proportional to 1e12.
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                m0.set(i, j, sign * 1.0e12);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let l = random_matrix(&mut rng, n, 8);
        let u = random_matrix(&mut rng, 8, n);
        for scheme in [ChecksumScheme::Full, ChecksumScheme::Multi(2), ChecksumScheme::Multi(3)] {
            let mut cs = encode_block(&m0, block, scheme);
            let mut m = m0.clone();
            bsr_linalg::blas3::gemm_into_block(
                -1.0,
                &l,
                bsr_linalg::Trans::No,
                &u,
                bsr_linalg::Trans::No,
                1.0,
                &mut m,
                block,
            );
            update_block_checksums_gemm(&mut cs, &l, &u);

            // The drift that misled the old rule is real: the old threshold scaled
            // every comparison by the max *unweighted sum* magnitude — here ~n·|LU|
            // because the huge entries cancel — so the block-magnitude-driven
            // roundoff of the updated checksums exceeded it.
            let fresh = encode_block(&m, block, scheme);
            let stored = cs.columns.as_ref().unwrap();
            let freshc = fresh.columns.as_ref().unwrap();
            let old_scale = stored.sum().iter().fold(0.0_f64, |a, &v| a.max(v.abs())).max(1.0);
            let max_drift = stored
                .checks
                .iter()
                .zip(&freshc.checks)
                .flat_map(|(s, f)| s.iter().zip(f).map(|(&a, &b)| (a - b).abs()))
                .fold(0.0_f64, f64::max);
            assert!(
                max_drift > 1e-6 * old_scale,
                "{scheme:?}: drift {max_drift:.3e} vs old tol {:.3e} — the \
                 regression scenario no longer exercises the old misclassification",
                1e-6 * old_scale
            );

            // And the new block-magnitude/order-aware scaling classifies the healthy
            // block as clean.
            let out = verify_and_correct(&mut m, &cs);
            assert_eq!(
                out,
                VerifyOutcome::default(),
                "{scheme:?}: healthy large-norm block misclassified"
            );
        }
    }

    #[test]
    fn checksum_update_through_gemm_matches_reencoding() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let m0 = random_matrix(&mut rng, 12, 12);
        let l = random_matrix(&mut rng, 12, 4);
        let u = random_matrix(&mut rng, 4, 12);
        let block = Block::full(12, 12);
        let mut cs = encode_block(&m0, block, ChecksumScheme::Full);

        // Apply C <- C - L*U numerically.
        let mut m = m0.clone();
        bsr_linalg::blas3::gemm_into_block(
            -1.0,
            &l,
            bsr_linalg::Trans::No,
            &u,
            bsr_linalg::Trans::No,
            1.0,
            &mut m,
            block,
        );
        // Update the checksums analytically.
        update_block_checksums_gemm(&mut cs, &l, &u);
        // They must match a fresh encoding of the updated matrix.
        let fresh = encode_block(&m, block, ChecksumScheme::Full);
        for j in 0..12 {
            assert!(
                (cs.columns.as_ref().unwrap().sum()[j] - fresh.columns.as_ref().unwrap().sum()[j])
                    .abs()
                    < 1e-9
            );
            assert!(
                (cs.columns.as_ref().unwrap().weighted()[j]
                    - fresh.columns.as_ref().unwrap().weighted()[j])
                    .abs()
                    < 1e-9
            );
        }
        for i in 0..12 {
            assert!(
                (cs.rows.as_ref().unwrap().sum()[i] - fresh.rows.as_ref().unwrap().sum()[i]).abs()
                    < 1e-9
            );
        }
        // And the updated matrix verifies clean against the updated checksums.
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out, VerifyOutcome::default());
    }

    #[test]
    fn checksum_update_then_injection_is_detected_and_corrected() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let m0 = random_matrix(&mut rng, 16, 16);
        let l = random_matrix(&mut rng, 16, 4);
        let u = random_matrix(&mut rng, 4, 16);
        let block = Block::full(16, 16);
        let mut cs = encode_block(&m0, block, ChecksumScheme::Full);
        let mut m = m0.clone();
        bsr_linalg::blas3::gemm_into_block(
            -1.0,
            &l,
            bsr_linalg::Trans::No,
            &u,
            bsr_linalg::Trans::No,
            1.0,
            &mut m,
            block,
        );
        update_block_checksums_gemm(&mut cs, &l, &u);
        let reference = m.clone();
        // Inject a fault as if the GEMM produced a wrong value.
        m.set(9, 3, m.get(9, 3) * 2.0 + 1.0);
        let out = verify_and_correct(&mut m, &cs);
        assert_eq!(out.corrected_0d, 1);
        assert!(m.approx_eq(&reference, 1e-8));
    }
}
