//! Packed, cache-blocked GEMM core shared by the level-3 BLAS kernels.
//!
//! This is the classic BLIS/GotoBLAS structure specialized to column-major storage and
//! generic over the element type (see [`crate::elem::Element`]; `f64` and `f32`):
//!
//! * `op(A)` and `op(B)` panels are **packed** into contiguous, zero-padded buffers
//!   before any arithmetic, so the innermost loops never touch `Matrix::get` or the
//!   transpose indirection — they stream two flat arrays;
//! * the three blocking loops tile the problem as `NC × KC × MC`; the block sizes are
//!   compiled per element type ([`crate::tune`]) so the active `A` block lives in L2
//!   and the active micro-panels live in L1;
//! * an `MR × NR` register micro-kernel does all flops, selected at runtime per
//!   element type: 8×8 for `f64`, 16×8 (double the lanes per vector) for `f32`; on
//!   AVX-512F hosts a paired-panel kernel drives two adjacent panels at once as one
//!   16×8 / 32×8 tile in 16 `zmm` accumulators. Packed panels start on cache-line
//!   boundaries ([`crate::elem::AlignedBuf`]) so the wide loads never straddle lines.
//!
//! Tail tiles are handled by zero-padding the packed panels to full `MR`/`NR` width, so
//! the micro-kernel is always full-size and only the write-back masks the valid region.
//! SYRK reuses the same core through the `mask_lower` flag, which skips tiles entirely
//! above the diagonal and masks the write-back to `i >= j`. A full paired tile that no
//! mask cuts skips the write-back: the fused kernel adds it into `C` from registers,
//! rounding each element exactly as `write_back` does.
//!
//! The only `unsafe` in the crate is the set of SIMD micro-kernels in [`crate::elem`];
//! each is gated by a runtime `is_x86_feature_detected!` check and operates on slices
//! whose lengths are asserted by the caller.

use crate::blas3::Trans;
use crate::elem::{AlignedBuf, Element, MAX_TILE};
use crate::matrix::Matrix;
use crate::tune::{self, KernelParams};

pub use crate::elem::simd_backend;

/// Pack the `mc × kc` block of `op(A)` with top-left op-coordinate `(oi, ok)` into `buf`
/// as zero-padded `MR`-row panels: element `(i, k)` of the block lands at
/// `buf[((i / MR) * kc + k) * MR + i % MR]`.
pub(crate) fn pack_a<E: Element>(
    a: &Matrix<E>,
    trans: Trans,
    oi: usize,
    ok: usize,
    mc: usize,
    kc: usize,
    buf: &mut [E],
) {
    let mr_w = E::MR;
    let panels = mc.div_ceil(mr_w);
    for ip in 0..panels {
        let i0 = ip * mr_w;
        let mr = mr_w.min(mc - i0);
        let dst = &mut buf[ip * kc * mr_w..(ip * kc + kc) * mr_w];
        match trans {
            // op(A)[i, k] = A[oi + i, ok + k]: rows are contiguous in each stored column.
            Trans::No => {
                for k in 0..kc {
                    let src = &a.col(ok + k)[oi + i0..oi + i0 + mr];
                    dst[k * mr_w..k * mr_w + mr].copy_from_slice(src);
                    dst[k * mr_w + mr..(k + 1) * mr_w].fill(E::ZERO);
                }
            }
            // op(A)[i, k] = A[ok + k, oi + i]: the k-run of row i is stored column oi + i.
            Trans::Yes => {
                for r in 0..mr_w {
                    if r < mr {
                        let src = &a.col(oi + i0 + r)[ok..ok + kc];
                        for (k, &v) in src.iter().enumerate() {
                            dst[k * mr_w + r] = v;
                        }
                    } else {
                        for k in 0..kc {
                            dst[k * mr_w + r] = E::ZERO;
                        }
                    }
                }
            }
        }
    }
}

/// Pack the `kc × nc` block of `op(B)` with top-left op-coordinate `(ok, oj)` into `buf`
/// as zero-padded `NR`-column panels: element `(k, j)` of the block lands at
/// `buf[((j / NR) * kc + k) * NR + j % NR]`.
pub(crate) fn pack_b<E: Element>(
    b: &Matrix<E>,
    trans: Trans,
    ok: usize,
    oj: usize,
    kc: usize,
    nc: usize,
    buf: &mut [E],
) {
    let nr_w = E::NR;
    let panels = nc.div_ceil(nr_w);
    for jp in 0..panels {
        let j0 = jp * nr_w;
        let nr = nr_w.min(nc - j0);
        let dst = &mut buf[jp * kc * nr_w..(jp * kc + kc) * nr_w];
        match trans {
            // op(B)[k, j] = B[ok + k, oj + j]: the k-run of column j is stored column oj + j.
            Trans::No => {
                for c in 0..nr_w {
                    if c < nr {
                        let src = &b.col(oj + j0 + c)[ok..ok + kc];
                        for (k, &v) in src.iter().enumerate() {
                            dst[k * nr_w + c] = v;
                        }
                    } else {
                        for k in 0..kc {
                            dst[k * nr_w + c] = E::ZERO;
                        }
                    }
                }
            }
            // op(B)[k, j] = B[oj + j, ok + k]: columns are contiguous in each stored column.
            Trans::Yes => {
                for k in 0..kc {
                    let src = &b.col(ok + k)[oj + j0..oj + j0 + nr];
                    dst[k * nr_w..k * nr_w + nr].copy_from_slice(src);
                    dst[k * nr_w + nr..(k + 1) * nr_w].fill(E::ZERO);
                }
            }
        }
    }
}

/// `op(M)` viewed from op-coordinate `(row0, col0)` onward: how the packed core is
/// handed an operand. The origins let callers (the per-tile factorization tasks, the
/// structured residual sweeps) multiply sub-blocks of shared matrices without
/// materializing copies — packing reads the sub-block directly.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a, E: Element> {
    pub m: &'a Matrix<E>,
    pub trans: Trans,
    pub row0: usize,
    pub col0: usize,
}

impl<'a, E: Element> Operand<'a, E> {
    /// `op(M)` from op-coordinate `(row0, col0)`.
    pub fn at(m: &'a Matrix<E>, trans: Trans, row0: usize, col0: usize) -> Self {
        Self { m, trans, row0, col0 }
    }

    /// All of `op(M)`.
    pub fn whole(m: &'a Matrix<E>, trans: Trans) -> Self {
        Self::at(m, trans, 0, 0)
    }

    /// Shape of the whole `op(M)` (ignoring the origin).
    pub fn op_dims(&self) -> (usize, usize) {
        match self.trans {
            Trans::No => (self.m.rows(), self.m.cols()),
            Trans::Yes => (self.m.cols(), self.m.rows()),
        }
    }
}

/// Accumulate `alpha * A * B[:, j0 ..]` into one column strip of the output block,
/// under the blocking for `E`.
///
/// The effective `A` is the `m × k` block at the origin of the operand view `a`; the
/// effective `B` is `k` rows deep from the origin of `b`, its columns starting `j0`
/// past that origin. `cols[jj]` is the mutable row range of output column `j0 + jj`
/// (block-local coordinates, so `cols[jj][i]` is output element `(i, j0 + jj)`). With
/// `mask_lower`, only elements with `i >= j` (block-local, i.e. the lower triangle of a
/// square diagonal block) are computed and written — this is the SYRK path; the mask is
/// anchored at block-local `(0, 0)` regardless of the operand origins.
#[allow(clippy::too_many_arguments)] // internal BLAS plumbing; mirrors the packing calls
pub(crate) fn gemm_strip<E: Element>(
    alpha: E,
    a: Operand<'_, E>,
    b: Operand<'_, E>,
    m: usize,
    k: usize,
    j0: usize,
    cols: &mut [&mut [E]],
    mask_lower: bool,
) {
    let w = cols.len();
    if w == 0 || m == 0 || k == 0 || alpha == E::ZERO {
        return;
    }
    let p = tune::params::<E>();
    let kc_max = p.kc.min(k);
    let mc_max = p.mc.min(m.next_multiple_of(E::MR));
    let nc_max = p.nc.min(w.next_multiple_of(E::NR));
    let a_len = mc_max * kc_max;
    let b_len = kc_max * nc_max;
    // Packing buffers are reused across calls through a per-type thread-local pair: the
    // tiled factorizations issue many small per-tile GEMMs per iteration, and a fresh
    // zero-filled allocation per call showed up next to the math at that granularity.
    E::with_pack_bufs(|bufs| {
        let (apack, bpack) = bufs.slices(a_len, b_len);
        gemm_strip_packed(p, alpha, a, b, m, k, j0, cols, mask_lower, apack, bpack);
    });
}

/// The blocking loops of [`gemm_strip`], working from caller-provided packing scratch.
#[allow(clippy::too_many_arguments)]
fn gemm_strip_packed<E: Element>(
    p: &KernelParams,
    alpha: E,
    a: Operand<'_, E>,
    b: Operand<'_, E>,
    m: usize,
    k: usize,
    j0: usize,
    cols: &mut [&mut [E]],
    mask_lower: bool,
    apack: &mut [E],
    bpack: &mut [E],
) {
    let w = cols.len();
    for jc in (0..w).step_by(p.nc) {
        let nc = p.nc.min(w - jc);
        for pc in (0..k).step_by(p.kc) {
            let kc = p.kc.min(k - pc);
            pack_b(b.m, b.trans, b.row0 + pc, b.col0 + j0 + jc, kc, nc, bpack);
            // Lower-triangle outputs only need rows at or below the strip's first
            // column; start at the enclosing MR boundary so packing stays aligned.
            let ic0 = if mask_lower { (j0 + jc) / E::MR * E::MR } else { 0 };
            for ic in (ic0..m).step_by(p.mc) {
                let mc = p.mc.min(m - ic);
                pack_a(a.m, a.trans, a.row0 + ic, a.col0 + pc, mc, kc, apack);
                macro_kernel(alpha, kc, mc, nc, ic, jc, j0, cols, apack, bpack, mask_lower);
            }
        }
    }
}

/// Run the micro-kernel over every `MR × NR` tile of the packed `mc × nc` block and
/// accumulate the (masked) results into the output columns.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<E: Element>(
    alpha: E,
    kc: usize,
    mc: usize,
    nc: usize,
    ic: usize,
    jc: usize,
    j0: usize,
    cols: &mut [&mut [E]],
    apack: &[E],
    bpack: &[E],
    mask_lower: bool,
) {
    let (mr_w, nr_w) = (E::MR, E::NR);
    let pair_panels = E::pair_panels();
    let mut acc = [E::ZERO; MAX_TILE];
    let mut acc2 = [E::ZERO; MAX_TILE];
    let mpan = mc.div_ceil(mr_w);
    for jr in 0..nc.div_ceil(nr_w) {
        let jj0 = jr * nr_w;
        let nr = nr_w.min(nc - jj0);
        // Block-local column index of the tile's first column (for the lower mask).
        let gj0 = j0 + jc + jj0;
        let bp = &bpack[jr * kc * nr_w..(jr * kc + kc) * nr_w];
        let skipped = |ir: usize| {
            let mr = mr_w.min(mc - ir * mr_w);
            mask_lower && ic + ir * mr_w + mr <= gj0 // entirely in the strictly-upper triangle
        };
        let mut ir = 0;
        while ir < mpan {
            if skipped(ir) {
                ir += 1;
                continue;
            }
            let panel = |ir: usize| &apack[ir * kc * mr_w..(ir * kc + kc) * mr_w];
            if pair_panels && ir + 1 < mpan && !skipped(ir + 1) {
                // A full 2·MR × NR tile wholly on or below the diagonal adds into C from
                // registers; ragged and diagonal-crossing tiles take the masked path.
                let i0 = ic + ir * mr_w;
                let full = nr == nr_w && (ir + 2) * mr_w <= mc;
                if full && (!mask_lower || i0 + 1 >= gj0 + nr_w) {
                    let c = &mut cols[jc + jj0..jc + jj0 + nr_w];
                    E::micro_kernel_x2_fused(kc, panel(ir), panel(ir + 1), bp, alpha, c, i0);
                } else {
                    E::micro_kernel_x2(kc, panel(ir), panel(ir + 1), bp, &mut acc, &mut acc2);
                    write_back(alpha, ic, ir, gj0, jc + jj0, nr, mc, cols, &acc, mask_lower);
                    write_back(alpha, ic, ir + 1, gj0, jc + jj0, nr, mc, cols, &acc2, mask_lower);
                }
                ir += 2;
            } else {
                E::micro_kernel(kc, panel(ir), bp, &mut acc);
                write_back(alpha, ic, ir, gj0, jc + jj0, nr, mc, cols, &acc, mask_lower);
                ir += 1;
            }
        }
    }
}

/// Accumulate one `MR × NR` tile result (`acc`, panel `ir`) into the output columns,
/// masking the valid `mr × nr` region. The lower-triangle mask is folded into the row
/// range (`i >= j` ⇔ start at `max(i0, gj)`), so the inner loop is a branch-free,
/// bounds-check-free axpy over two slices.
#[allow(clippy::too_many_arguments)]
fn write_back<E: Element>(
    alpha: E,
    ic: usize,
    ir: usize,
    gj0: usize,
    col0: usize,
    nr: usize,
    mc: usize,
    cols: &mut [&mut [E]],
    acc: &[E],
    mask_lower: bool,
) {
    let mr_w = E::MR;
    let i0 = ic + ir * mr_w;
    let mr = mr_w.min(mc - ir * mr_w);
    for c in 0..nr {
        let gj = gj0 + c;
        let lo = if mask_lower { gj.max(i0) } else { i0 };
        let hi = i0 + mr;
        if lo >= hi {
            continue;
        }
        let dst = &mut cols[col0 + c][lo..hi];
        let src = &acc[c * mr_w + (lo - i0)..c * mr_w + (hi - i0)];
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d += alpha * s;
        }
    }
}

/// One packed `KC`-chunk of a [`PackedA`]: its inner-dimension extent, its op-row
/// offset within the packed block, and its offset into the shared buffer.
#[derive(Clone, Copy)]
struct PackedChunk {
    kc: usize,
    op_k0: usize,
    buf_off: usize,
}

/// `op(A)` panels packed once and shared read-only across the tile tasks of one
/// factorization iteration.
///
/// Every tile task of a tiled-factorization iteration multiplies against the same
/// `op(A)` (the panel's `L21` / `A21` / `V`): packing it inside each task's GEMM
/// would repack the same rows once per tile (up to `n / block` times the fork-join
/// path's traffic). Packing once up front restores pack-cost parity; tasks consume
/// sub-ranges of the packed panels through [`gemm_strip_prepacked`] with an
/// `MR`-aligned row origin. The packed values are identical to what per-call packing
/// would produce, so results stay bit-identical.
#[derive(Default)]
pub(crate) struct PackedA<E: Element = f64> {
    /// Padded row count (multiple of `MR`); `mp / MR` panels per chunk.
    mp: usize,
    /// The inner-dimension chunks, in order.
    chunks: Vec<PackedChunk>,
    /// Total packed length across all chunks.
    len: usize,
    buf: AlignedBuf<E>,
}

impl<E: Element> PackedA<E> {
    /// (Re)pack the `m × k` block of `op(A)` with top-left op-coordinate `(oi0, ok0)`,
    /// reusing the existing buffer when it is large enough — a driver-owned `PackedA`
    /// repacked every iteration pays the allocation and its zero-fill only once.
    pub fn repack(&mut self, a: &Matrix<E>, ta: Trans, oi0: usize, ok0: usize, m: usize, k: usize) {
        let kc_step = tune::params::<E>().kc;
        self.mp = m.next_multiple_of(E::MR);
        self.chunks.clear();
        let mut total = 0;
        let mut pc = 0;
        while pc < k {
            let kc = kc_step.min(k - pc);
            self.chunks.push(PackedChunk {
                kc,
                op_k0: pc,
                buf_off: total,
            });
            total += self.mp * kc;
            pc += kc;
        }
        self.len = total;
        let buf = self.buf.slice_mut(total);
        for ch in &self.chunks {
            pack_a(
                a,
                ta,
                oi0,
                ok0 + ch.op_k0,
                m,
                ch.kc,
                &mut buf[ch.buf_off..ch.buf_off + self.mp * ch.kc],
            );
        }
    }

    /// The packed panels, all chunks back to back.
    fn packed(&self) -> &[E] {
        self.buf.slice(self.len)
    }
}

/// [`gemm_strip`] against a pre-packed `op(A)` ([`PackedA`]): identical blocking and
/// write-back, but the A-panel packing step is replaced by slicing the shared buffer.
/// `a_row0` (the op-row origin of the effective `op(A)` block) must be a multiple of
/// `MR` so panel boundaries line up; `k` must equal the packed inner dimension.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_strip_prepacked<E: Element>(
    alpha: E,
    pa: &PackedA<E>,
    a_row0: usize,
    b: &Matrix<E>,
    tb: Trans,
    b_col0: usize,
    m: usize,
    k: usize,
    j0: usize,
    cols: &mut [&mut [E]],
    mask_lower: bool,
) {
    let w = cols.len();
    if w == 0 || m == 0 || k == 0 || alpha == E::ZERO {
        return;
    }
    let p = tune::params::<E>();
    let (mr_w, nr_w) = (E::MR, E::NR);
    debug_assert!(a_row0.is_multiple_of(mr_w), "prepacked origin must be MR-aligned");
    debug_assert!(a_row0 + m <= pa.mp, "prepacked row range out of bounds");
    debug_assert_eq!(pa.chunks.iter().map(|c| c.kc).sum::<usize>(), k);
    let kc_max = pa.chunks.iter().map(|c| c.kc).max().unwrap_or(0);
    let nc_max = p.nc.min(w.next_multiple_of(nr_w));
    let b_len = kc_max * nc_max;
    let packed = pa.packed();
    E::with_pack_bufs(|bufs| {
        let bpack = bufs.b.slice_mut(b_len);
        for jc in (0..w).step_by(p.nc) {
            let nc = p.nc.min(w - jc);
            for ch in &pa.chunks {
                pack_b(b, tb, ch.op_k0, b_col0 + j0 + jc, ch.kc, nc, bpack);
                let ic0 = if mask_lower { (j0 + jc) / mr_w * mr_w } else { 0 };
                for ic in (ic0..m).step_by(p.mc) {
                    let mc = p.mc.min(m - ic);
                    let p0 = (a_row0 + ic) / mr_w;
                    let panels =
                        &packed[ch.buf_off + p0 * ch.kc * mr_w..][..mc.div_ceil(mr_w) * ch.kc * mr_w];
                    macro_kernel(alpha, ch.kc, mc, nc, ic, jc, j0, cols, panels, bpack, mask_lower);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_layout_and_padding() {
        fn check<E: Element>() {
            // (MR - 3) × 3 block, no transpose: one partial MR panel, zero-padded tail.
            let rows = E::MR - 3;
            let a = Matrix::<E>::from_fn(rows, 3, |i, j| E::from_f64((10 * i + j) as f64));
            let (mc, kc): (usize, usize) = (rows, 3);
            let mut buf = vec![E::from_f64(-1.0); mc.next_multiple_of(E::MR) * kc];
            pack_a(&a, Trans::No, 0, 0, mc, kc, &mut buf);
            for k in 0..kc {
                for i in 0..E::MR {
                    let expect = if i < rows { (10 * i + k) as f64 } else { 0.0 };
                    assert_eq!(buf[k * E::MR + i].to_f64(), expect, "{}", E::NAME);
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn pack_b_transposed_matches_op() {
        fn check<E: Element>() {
            // op(B) = Bᵀ where B is 4×6 → op(B) is 6×4; pack a 6×3 block at op-origin (0, 1).
            let b = Matrix::<E>::from_fn(4, 6, |i, j| E::from_f64((i + 100 * j) as f64));
            let (kc, nc): (usize, usize) = (6, 3);
            let mut buf = vec![E::from_f64(-1.0); kc * nc.next_multiple_of(E::NR)];
            pack_b(&b, Trans::Yes, 0, 1, kc, nc, &mut buf);
            for k in 0..kc {
                for j in 0..E::NR {
                    let expect = if j < nc { b.get(1 + j, k).to_f64() } else { 0.0 };
                    assert_eq!(buf[k * E::NR + j].to_f64(), expect, "{}", E::NAME);
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn prepacked_matches_fresh_packing_across_chunks() {
        fn check<E: Element>(tol: f64) {
            // k spans several packed KC chunks of either type, with a ragged last one.
            let (m, k, w) = (2 * E::MR + 3, 700, 9);
            let a = Matrix::<E>::from_fn(m, k, |i, j| E::from_f64(((i * 7 + j * 3) % 17) as f64 - 8.0));
            let b = Matrix::<E>::from_fn(k, w, |i, j| E::from_f64(((i * 5 + j * 11) % 13) as f64 - 6.0));
            let mut fresh = Matrix::<E>::zeros(m, w);
            let mut cols = fresh.columns_mut();
            gemm_strip(
                E::ONE,
                Operand::whole(&a, Trans::No),
                Operand::whole(&b, Trans::No),
                m,
                k,
                0,
                &mut cols,
                false,
            );
            drop(cols);
            let mut pa = PackedA::<E>::default();
            pa.repack(&a, Trans::No, 0, 0, m, k);
            let mut pre = Matrix::<E>::zeros(m, w);
            let mut cols = pre.columns_mut();
            gemm_strip_prepacked(E::ONE, &pa, 0, &b, Trans::No, 0, m, k, 0, &mut cols, false);
            drop(cols);
            for j in 0..w {
                for i in 0..m {
                    let (x, y) = (fresh.get(i, j).to_f64(), pre.get(i, j).to_f64());
                    assert!(
                        (x - y).abs() <= tol,
                        "{}: prepacked differs at ({i},{j}): {x} vs {y}",
                        E::NAME
                    );
                }
            }
        }
        check::<f64>(0.0); // identical packing order ⇒ bit-identical
        check::<f32>(0.0);
    }
}
