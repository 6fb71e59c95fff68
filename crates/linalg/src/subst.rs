//! The substitution kernels beneath TRSM's diagonal blocks and the Cholesky panel.
//!
//! Every diagonal-block substitution is one *coupled system* ([`Coupling`]): `n`
//! unknowns solved one after another, each one the right-hand side minus a sum of
//! already-solved unknowns times coefficients, divided by its diagonal. What is
//! independent is the *lane*: a row of `X` in a right-side solve `X · op(A)⁻¹`, a
//! right-hand-side column in a left-side solve `op(A)⁻¹ · X`. [`solve_lanes`] solves
//! the system on every lane of `n` column slices (one slice per unknown) in strips of
//! lanes whose accumulators stay in registers across the unknown's whole sum, so each
//! coefficient is loaded once per strip. Left-side solves store their lanes across
//! the columns, so [`solve_left_cols`] transposes the block into a scratch first.
//! [`potf2_lanes`] is the unblocked Cholesky of a diagonal block in the same strips.
//!
//! The bodies here are safe, `Element`-generic and `#[inline(always)]`: the dispatch
//! in [`crate::elem`] compiles them once per SIMD level the host can run and picks one
//! at runtime. Vector width changes nothing about the arithmetic: every element gets
//! the same multiplies, subtractions, divisions and zero-skips in the same order as a
//! scalar substitution, and Rust never contracts a multiply and an add into an FMA,
//! so every level produces the same bits.

use crate::blas3::Diag;
use crate::elem::Element;
use std::ops::Range;

/// An `n × n` triangular system over column slices: unknown `t`'s equation is
/// `x[t] = (b[t] − Σ_s coef(t, s) · x[s]) / diag[t]`, its sources `s` taken in
/// ascending order — all `s < t` forward, all `s > t` backward (unknowns then solved
/// from the last).
pub(crate) struct Coupling<E> {
    n: usize,
    /// `coef[t * n + s]`: the coefficient of unknown `s` in unknown `t`'s equation.
    coef: Vec<E>,
    /// Divisors per unknown; `None` for a unit diagonal.
    diag: Option<Vec<E>>,
    backward: bool,
    /// Skip a source whose coefficient is exactly zero (the right-side TRSM's rule;
    /// it decides the sign of a zero result, so it is part of the bits).
    skip_zeros: bool,
}

impl<E: Element> Coupling<E> {
    /// The system with coefficients `coef(t, s)` and, unless `diag` is unit,
    /// divisors `coef(t, t)`.
    pub(crate) fn new(
        n: usize,
        backward: bool,
        diag: Diag,
        skip_zeros: bool,
        coef: impl Fn(usize, usize) -> E,
    ) -> Self {
        let mut sys = Coupling {
            n,
            coef: vec![E::ZERO; n * n],
            diag: None,
            backward,
            skip_zeros,
        };
        for t in 0..n {
            for s in sys.sources(t) {
                sys.coef[t * n + s] = coef(t, s);
            }
        }
        sys.diag = (diag == Diag::NonUnit).then(|| (0..n).map(|t| coef(t, t)).collect());
        sys
    }

    /// The unknowns unknown `t`'s equation reads, in the order it subtracts them.
    #[inline(always)]
    fn sources(&self, t: usize) -> Range<usize> {
        if self.backward {
            t + 1..self.n
        } else {
            0..t
        }
    }
}

/// `acc[i] −= c · src[i]`: one multiply, then one subtraction.
#[inline(always)]
fn sub_scaled<E: Element, const W: usize>(acc: &mut [E; W], c: E, src: &[E]) {
    let src: &[E; W] = src.try_into().expect("a strip of W lanes");
    for (a, &x) in acc.iter_mut().zip(src) {
        *a -= c * x;
    }
}

/// The strips `(start, width)` that cover `[0, len)`: `W` lanes while they fit,
/// then 8, then 1. Callers run the matching monomorphic strip kernel on each.
#[inline(always)]
fn strips<const W: usize>(len: usize) -> impl Iterator<Item = (usize, usize)> {
    let wide = len / W * W;
    let eight = wide + (len - wide) / 8 * 8;
    let at = |from: usize, to: usize, w: usize| (from..to).step_by(w).map(move |r| (r, w));
    at(0, wide, W)
        .chain(at(wide, eight, 8))
        .chain(at(eight, len, 1))
}

/// The whole system on lanes `[r, r + W)`.
#[inline(always)]
fn solve_strip<E: Element, const W: usize>(sys: &Coupling<E>, cols: &mut [&mut [E]], r: usize) {
    let n = sys.n;
    for step in 0..n {
        let t = if sys.backward { n - 1 - step } else { step };
        let coef = &sys.coef[t * n..(t + 1) * n];
        let mut acc: [E; W] = cols[t][r..r + W].try_into().expect("a strip of W lanes");
        for s in sys.sources(t) {
            let c = coef[s];
            if sys.skip_zeros && c == E::ZERO {
                continue;
            }
            sub_scaled(&mut acc, c, &cols[s][r..r + W]);
        }
        if let Some(diag) = &sys.diag {
            let d = diag[t];
            for a in &mut acc {
                *a /= d;
            }
        }
        cols[t][r..r + W].copy_from_slice(&acc);
    }
}

/// Solve `sys` in place on every lane of `cols` (one equally long slice per unknown),
/// `W` lanes at a time.
#[inline(always)]
pub(crate) fn solve_lanes<E: Element, const W: usize>(sys: &Coupling<E>, cols: &mut [&mut [E]]) {
    assert_eq!(cols.len(), sys.n, "one column slice per unknown");
    let Some(lanes) = cols.first().map(|c| c.len()) else {
        return;
    };
    assert!(
        cols.iter().all(|c| c.len() == lanes),
        "column slices differ in length"
    );
    for (r, w) in strips::<W>(lanes) {
        match w {
            1 => solve_strip::<E, 1>(sys, cols, r),
            8 => solve_strip::<E, 8>(sys, cols, r),
            _ => solve_strip::<E, W>(sys, cols, r),
        }
    }
}

/// `col[r..r + W] −= Σ_k L[row, k] · L[row + r.., k]` over the source columns `ls`
/// (`k` ascending), with the strip in registers across the sum.
#[inline(always)]
fn fold_strip<E: Element, const W: usize>(col: &mut [E], r: usize, ls: &[&mut [E]], row: usize) {
    let mut acc: [E; W] = col[r..r + W].try_into().expect("a strip of W lanes");
    for lk in ls {
        sub_scaled(&mut acc, lk[row], &lk[row + r..row + r + W]);
    }
    col[r..r + W].copy_from_slice(&acc);
}

/// Unblocked lower Cholesky of the `nb × nb` diagonal block at rows
/// `[row0, row0 + nb)` of the `nb` column slices `cols`. Per column `j`, the earlier
/// columns are folded in (`A[j.., j] −= L[j, k] · L[j.., k]`, `k` ascending), then
/// the pivot is square-rooted and the subcolumn scaled by its reciprocal. `Err(j)`
/// names the first column whose pivot is not positive and finite.
#[inline(always)]
pub(crate) fn potf2_lanes<E: Element, const W: usize>(
    cols: &mut [&mut [E]],
    row0: usize,
) -> Result<(), usize> {
    let nb = cols.len();
    let jend = row0 + nb;
    for j in 0..nb {
        let (done, rest) = cols.split_at_mut(j);
        let col = &mut rest[0][row0 + j..jend];
        for (r, w) in strips::<W>(col.len()) {
            match w {
                1 => fold_strip::<E, 1>(col, r, done, row0 + j),
                8 => fold_strip::<E, 8>(col, r, done, row0 + j),
                _ => fold_strip::<E, W>(col, r, done, row0 + j),
            }
        }
        let d = col[0];
        // `d <= 0` alone is false for NaN and +Inf, which would sqrt/scale straight
        // into non-finite factors.
        if d <= E::ZERO || !d.is_finite() {
            return Err(j);
        }
        let d = d.sqrt();
        col[0] = d;
        let inv = E::ONE / d;
        for v in &mut col[1..] {
            *v *= inv;
        }
    }
    Ok(())
}

/// Right-hand-side columns a left-side solve transposes at a time: a chunk's scratch
/// (`n · LEFT_CHUNK` elements, 128 KiB at `n = 64` in f64) stays in cache between
/// the transpose, the solve and the copy back.
const LEFT_CHUNK: usize = 256;

/// Left-side solve `x ← op(A)⁻¹ · x` of `sys` on rows `[row0, row0 + n)` of every
/// column in `cols`. The right-hand-side columns are the lanes, so each chunk of
/// columns is transposed into a scratch holding one slice per unknown, solved there,
/// and copied back.
pub(crate) fn solve_left_cols<E: Element>(sys: &Coupling<E>, cols: &mut [&mut [E]], row0: usize) {
    let n = sys.n;
    for chunk in cols.chunks_mut(LEFT_CHUNK) {
        let w = chunk.len();
        let mut buf = vec![E::ZERO; n * w];
        for (c, col) in chunk.iter().enumerate() {
            for (t, &v) in col[row0..row0 + n].iter().enumerate() {
                buf[t * w + c] = v;
            }
        }
        let mut unknowns: Vec<&mut [E]> = buf.chunks_exact_mut(w).collect();
        crate::elem::solve_lanes(sys, &mut unknowns);
        for (c, col) in chunk.iter_mut().enumerate() {
            for (t, v) in col[row0..row0 + n].iter_mut().enumerate() {
                *v = buf[t * w + c];
            }
        }
    }
}
