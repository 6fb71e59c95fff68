//! Element-type abstraction of the packed kernel core.
//!
//! The BLIS-style GEMM machinery in `crate::kernel` and the level-3 kernels in
//! [`crate::blas3`] are generic over the scalar type through this trait. Two element
//! types are supported:
//!
//! * **`f64`** — the default everywhere; an 8×8 micro-tile (one 8-row packed panel is
//!   one `zmm`, or two `ymm`, per k step; the packed `op(B)` panel is 8 columns wide).
//! * **`f32`** — double the lanes per vector, so the micro-tile widens to 16×8 with the
//!   same register budget. This is the raw-speed half of the mixed-precision mode:
//!   factor in f32 at ~2× the FLOP rate, then let the f64 checksum/refinement layer
//!   restore f64 quality (see `bsr-core`'s `Precision::MixedF32`).
//!
//! On AVX-512F hosts the core pairs adjacent row panels into one 16×8 (f64) / 32×8
//! (f32) register tile: 16 `zmm` accumulators, 2 panel loads per 16 FMAs, and full
//! tiles add `alpha · tile` into `C` straight from registers
//! ([`Element::micro_kernel_x2_fused`]). The odd panel left over runs a single-panel
//! `zmm` kernel. On AVX2+FMA hosts each panel runs as two 4-column halves of 8 `ymm`
//! accumulators (16 `ymm` registers cannot hold a whole 8-column tile). Every backend
//! accumulates each output element's own FMA chain in `k` order, so all of them agree
//! bit for bit; the portable fallback rounds `a·b + c` twice and differs in the last
//! bits.
//!
//! Each element type carries its own micro-tile geometry (`MR`/`NR`), its own
//! cache-blocking parameters (reported by [`crate::tune`]) and its own thread-local
//! packing scratch.
//!
//! The triangular substitution kernels beneath TRSM's diagonal blocks and the
//! Cholesky panel (`crate::subst`) are safe generic code; this module compiles them
//! once more per SIMD level (AVX-512F, AVX2) and dispatches at runtime, so all
//! `unsafe` stays here.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use crate::subst::Coupling;

/// Upper bound of `MR * NR` over all element types; micro-kernel accumulators are
/// fixed-size arrays of this length, sliced down to the type's real tile.
pub(crate) const MAX_TILE: usize = 128;

/// Scalar type the packed level-3 kernels operate on. Implemented for `f64` and `f32`;
/// sealed in practice by the micro-kernel plumbing (the associated items reference
/// crate-internal buffers), so external implementations are not supported.
pub trait Element:
    Copy
    + Default
    + Debug
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Short name used in operating-point records and error messages (`"f64"`/`"f32"`).
    const NAME: &'static str;
    /// Machine epsilon of the type, as `f64` (tolerance scaling).
    const EPSILON: f64;
    /// Micro-kernel tile rows (rows of packed `op(A)` panels).
    const MR: usize;
    /// Micro-kernel tile columns (columns of packed `op(B)` panels).
    const NR: usize;
    /// Inner-dimension block of the packed kernels.
    const DEFAULT_KC: usize;
    /// Default row block, multiple of [`Element::MR`].
    const DEFAULT_MC: usize;
    /// Default column block, multiple of [`Element::NR`].
    const DEFAULT_NC: usize;
    /// Default madd count above which a level-3 kernel splits over the thread pool.
    const DEFAULT_PAR_MADDS: usize = 64 * 64 * 64;

    /// Exact conversion from `f64` (rounds for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (exact for both supported types).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// True for finite (non-NaN, non-infinite) values.
    fn is_finite(self) -> bool;
    /// The column slices themselves when `Self` is `f64`, `None` for every narrower
    /// type: code whose arithmetic is pinned to f64 (the ABFT checksum hooks) works
    /// on f64 data in place and promotes a copy only when this returns `None`.
    fn as_f64_cols<'a, 'b>(_cols: &'a mut [&'b mut [Self]]) -> Option<&'a mut [&'b mut [f64]]> {
        None
    }

    /// `acc[j * MR + i] = Σ_k ap[k * MR + i] * bp[k * NR + j]` over one packed
    /// micro-panel pair; `acc[..MR * NR]` is overwritten. Dispatches to the best
    /// single-panel SIMD kernel the host supports.
    fn micro_kernel(kc: usize, ap: &[Self], bp: &[Self], acc: &mut [Self]);

    /// True when [`Element::micro_kernel_x2`] / [`Element::micro_kernel_x2_fused`]
    /// should be used for adjacent panel pairs (AVX-512F hosts).
    fn pair_panels() -> bool;

    /// Paired-panel micro-kernel: like two [`Element::micro_kernel`] calls sharing one
    /// `op(B)` panel, with 16 independent FMA chains per k step. Only called when
    /// [`Element::pair_panels`] returns true.
    fn micro_kernel_x2(
        kc: usize,
        ap0: &[Self],
        ap1: &[Self],
        bp: &[Self],
        acc0: &mut [Self],
        acc1: &mut [Self],
    );

    /// [`Element::micro_kernel_x2`] with the write-back fused in: the `C` tile is
    /// prefetched before the k loop, and `c[j][row0 + i] += alpha · tile[i, j]` is
    /// applied to rows `row0 .. row0 + 2·MR` of the `NR` column slices `c` straight
    /// from registers. Each element is one multiply and then one add (no FMA), the
    /// two roundings of the scalar write-back, so the bits match it for every `alpha`.
    /// Only called when [`Element::pair_panels`] returns true.
    fn micro_kernel_x2_fused(
        kc: usize,
        ap0: &[Self],
        ap1: &[Self],
        bp: &[Self],
        alpha: Self,
        c: &mut [&mut [Self]],
        row0: usize,
    );

    /// Run `f` against this thread's packing scratch for the type (grown on demand,
    /// kept for the thread's lifetime). Each element type owns its own thread-local so
    /// mixed-precision runs do not thrash one shared buffer between layouts.
    #[doc(hidden)]
    fn with_pack_bufs<R>(f: impl FnOnce(&mut PackBufs<Self>) -> R) -> R;
}

/// Portable micro-kernel: plain nested loops over the packed panels. The loop bounds
/// are monomorphization-time constants, so LLVM unrolls and auto-vectorizes the
/// `MR`-wide inner loop with whatever SIMD the target offers.
pub(crate) fn micro_kernel_scalar<E: Element>(kc: usize, ap: &[E], bp: &[E], acc: &mut [E]) {
    let (mr, nr) = (E::MR, E::NR);
    debug_assert!(ap.len() >= kc * mr && bp.len() >= kc * nr && acc.len() >= mr * nr);
    acc[..mr * nr].fill(E::ZERO);
    for k in 0..kc {
        let a = &ap[k * mr..(k + 1) * mr];
        let b = &bp[k * nr..(k + 1) * nr];
        for (j, &bj) in b.iter().enumerate() {
            let col = &mut acc[j * mr..(j + 1) * mr];
            for (cv, &av) in col.iter_mut().zip(a.iter()) {
                *cv += av * bj;
            }
        }
    }
}

/// Name of the micro-kernel backend selected at runtime: `"avx512f"` (paired-panel zmm
/// kernels) or `"avx2+fma"` on x86-64 CPUs with the features, `"scalar"`
/// (auto-vectorized) otherwise. Both element types share one backend choice.
pub fn simd_backend() -> &'static str {
    if avx512_available() {
        return "avx512f";
    }
    if avx2_fma_available() {
        return "avx2+fma";
    }
    "scalar"
}

/// Runtime check for AVX2 + FMA, memoized.
pub(crate) fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Runtime check for AVX-512F, memoized.
pub(crate) fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The four micro-kernel methods of an [`Element`] impl: runtime dispatch to the
/// type's x86 kernels in `x86::$m`, with the scalar kernel as the portable fallback.
/// Every length the SIMD kernels rely on is asserted here, in safe code.
macro_rules! kernel_methods {
    ($t:ty, $m:ident) => {
        #[inline]
        fn micro_kernel(kc: usize, ap: &[$t], bp: &[$t], acc: &mut [$t]) {
            let (mr, nr) = (<$t as Element>::MR, <$t as Element>::NR);
            assert!(ap.len() >= kc * mr && bp.len() >= kc * nr && acc.len() >= mr * nr);
            #[cfg(target_arch = "x86_64")]
            {
                if avx512_available() {
                    // SAFETY: AVX-512F presence was checked at runtime; the panel and
                    // accumulator lengths are asserted above.
                    unsafe { x86::$m::zmm_single(kc, ap, bp, acc) };
                    return;
                }
                if avx2_fma_available() {
                    // SAFETY: AVX2 + FMA presence was checked at runtime; lengths are
                    // asserted above and both half offsets are at most NR - 4.
                    unsafe {
                        x86::$m::avx2_half(kc, ap, bp, acc, 0);
                        x86::$m::avx2_half(kc, ap, bp, acc, 4);
                    }
                    return;
                }
            }
            micro_kernel_scalar::<$t>(kc, ap, bp, acc);
        }

        #[inline]
        fn pair_panels() -> bool {
            avx512_available()
        }

        #[inline]
        fn micro_kernel_x2(
            kc: usize,
            ap0: &[$t],
            ap1: &[$t],
            bp: &[$t],
            acc0: &mut [$t],
            acc1: &mut [$t],
        ) {
            let (mr, nr) = (<$t as Element>::MR, <$t as Element>::NR);
            assert!(ap0.len() >= kc * mr && ap1.len() >= kc * mr && bp.len() >= kc * nr);
            assert!(acc0.len() >= mr * nr && acc1.len() >= mr * nr);
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                // SAFETY: AVX-512F presence was checked at runtime; lengths asserted above.
                unsafe { x86::$m::zmm_pair(kc, ap0, ap1, bp, acc0, acc1) };
                return;
            }
            Self::micro_kernel(kc, ap0, bp, acc0);
            Self::micro_kernel(kc, ap1, bp, acc1);
        }

        #[inline]
        fn micro_kernel_x2_fused(
            kc: usize,
            ap0: &[$t],
            ap1: &[$t],
            bp: &[$t],
            alpha: $t,
            c: &mut [&mut [$t]],
            row0: usize,
        ) {
            let (mr, nr) = (<$t as Element>::MR, <$t as Element>::NR);
            assert!(ap0.len() >= kc * mr && ap1.len() >= kc * mr && bp.len() >= kc * nr);
            assert!(c.len() == nr && c.iter().all(|col| col.len() >= row0 + 2 * mr));
            #[cfg(target_arch = "x86_64")]
            if avx512_available() {
                // SAFETY: AVX-512F presence was checked at runtime; the panel lengths,
                // the column count and every column's row range are asserted above.
                unsafe { x86::$m::zmm_pair_fused(kc, ap0, ap1, bp, alpha, c, row0) };
                return;
            }
            let (mut acc0, mut acc1) = ([0.0; MAX_TILE], [0.0; MAX_TILE]);
            Self::micro_kernel_x2(kc, ap0, ap1, bp, &mut acc0, &mut acc1);
            for (j, col) in c.iter_mut().enumerate() {
                let tile = acc0[j * mr..(j + 1) * mr].iter().chain(&acc1[j * mr..(j + 1) * mr]);
                for (d, &s) in col[row0..row0 + 2 * mr].iter_mut().zip(tile) {
                    *d += alpha * s;
                }
            }
        }
    };
}

/// Call `crate::subst::$f::<E, W>($args)` with `W` = the lanes of `E` in `$bytes`
/// bytes: strip kernels hold 8 vector registers of accumulators at the level they are
/// compiled for.
macro_rules! with_lanes {
    ($e:ty, $bytes:literal, $f:ident, ($($arg:expr),*)) => {
        if std::mem::size_of::<$e>() == 8 {
            crate::subst::$f::<$e, { $bytes / 8 }>($($arg),*)
        } else {
            crate::subst::$f::<$e, { $bytes / 4 }>($($arg),*)
        }
    };
}

/// The substitution strip kernels of [`crate::subst`], compiled for the widest SIMD
/// level the host runs (AVX-512F, AVX2, or the baseline target) and dispatched once
/// per call. Every level performs the same scalar operations per element in the same
/// order, so all of them produce the same bits.
macro_rules! subst_dispatch {
    ($(#[$doc:meta])* $name:ident, $ret:ty, ($($arg:ident: $ty:ty),*)) => {
        $(#[$doc])*
        pub(crate) fn $name<E: Element>($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            {
                if avx512_available() {
                    // SAFETY: AVX-512F presence was checked at runtime; the kernel body
                    // is safe code, so the target feature is its only requirement.
                    return unsafe { x86::subst::$name::avx512::<E>($($arg),*) };
                }
                if avx2_fma_available() {
                    // SAFETY: AVX2 presence was checked at runtime, as above.
                    return unsafe { x86::subst::$name::avx2::<E>($($arg),*) };
                }
            }
            with_lanes!(E, 128, $name, ($($arg),*))
        }
    };
}

subst_dispatch!(
    /// [`crate::subst::solve_lanes`]: solve a coupled triangular system on every lane
    /// of its column slices.
    solve_lanes, (), (sys: &Coupling<E>, cols: &mut [&mut [E]])
);
subst_dispatch!(
    /// [`crate::subst::potf2_lanes`]: unblocked Cholesky of a diagonal block held in
    /// column slices.
    potf2_lanes, Result<(), usize>, (cols: &mut [&mut [E]], row0: usize)
);

/// x86-64 SIMD micro-kernels, generated once per element type by `x86_kernels!` into
/// `x86::f64k` and `x86::f32k`. `$l` is the type's `zmm` lane count, which is also its
/// `MR`; `NR` is 8 for both types.
#[cfg(target_arch = "x86_64")]
mod x86 {
    macro_rules! x86_kernels {
        (
            $m:ident, $t:ty, $l:literal,
            ymm: $ymm_zero:ident, $ymm_load:ident, $ymm_store:ident, $ymm_set1:ident,
                 $ymm_fma:ident;
            zmm: $zmm:ty, $zmm_zero:ident, $zmm_load:ident, $zmm_store:ident, $zmm_set1:ident,
                 $zmm_fma:ident, $zmm_mul:ident, $zmm_add:ident;
        ) => {
            pub(super) mod $m {
                use std::arch::x86_64::*;

                /// Rows of one packed `A` panel (one `zmm`).
                const MR: usize = $l;
                /// Columns of one packed `B` panel.
                const NR: usize = 8;
                /// Lanes of one `ymm`.
                const YL: usize = $l / 2;

                /// AVX2 + FMA: columns `j0 .. j0 + 4` of the `MR × NR` tile, written to
                /// the same columns of `acc` (column stride `MR`). The 4-column half
                /// lives in 8 `ymm` accumulators (two per column), with 2 panel loads
                /// + 4 broadcasts + 8 FMAs per k step; two calls cover the tile.
                ///
                /// # Safety
                /// AVX2 and FMA must be available; `ap`/`bp`/`acc` must hold at least
                /// `kc * MR` / `kc * NR` / `MR * NR` elements and `j0 <= NR - 4`.
                #[target_feature(enable = "avx2", enable = "fma")]
                pub(in crate::elem) unsafe fn avx2_half(
                    kc: usize,
                    ap: &[$t],
                    bp: &[$t],
                    acc: &mut [$t],
                    j0: usize,
                ) {
                    unsafe {
                        let mut c = [[$ymm_zero(); 2]; 4];
                        let (mut pa, mut pb) = (ap.as_ptr(), bp.as_ptr().add(j0));
                        for _ in 0..kc {
                            let a0 = $ymm_load(pa);
                            let a1 = $ymm_load(pa.add(YL));
                            for (j, cj) in c.iter_mut().enumerate() {
                                let b = $ymm_set1(*pb.add(j));
                                cj[0] = $ymm_fma(a0, b, cj[0]);
                                cj[1] = $ymm_fma(a1, b, cj[1]);
                            }
                            pa = pa.add(MR);
                            pb = pb.add(NR);
                        }
                        let q = acc.as_mut_ptr().add(j0 * MR);
                        for (j, cj) in c.iter().enumerate() {
                            $ymm_store(q.add(j * MR), cj[0]);
                            $ymm_store(q.add(j * MR + YL), cj[1]);
                        }
                    }
                }

                /// AVX-512F single panel: the `MR × NR` tile in 8 `zmm` accumulators,
                /// 1 panel load + 8 broadcasts + 8 FMAs per k step. Runs the odd panel
                /// a paired sweep leaves over.
                ///
                /// # Safety
                /// AVX-512F must be available; `ap`/`bp`/`acc` must hold at least
                /// `kc * MR` / `kc * NR` / `MR * NR` elements.
                #[target_feature(enable = "avx512f")]
                pub(in crate::elem) unsafe fn zmm_single(
                    kc: usize,
                    ap: &[$t],
                    bp: &[$t],
                    acc: &mut [$t],
                ) {
                    unsafe {
                        let mut c = [$zmm_zero(); NR];
                        let (mut pa, mut pb) = (ap.as_ptr(), bp.as_ptr());
                        for _ in 0..kc {
                            let a = $zmm_load(pa);
                            for (j, cj) in c.iter_mut().enumerate() {
                                *cj = $zmm_fma(a, $zmm_set1(*pb.add(j)), *cj);
                            }
                            pa = pa.add(MR);
                            pb = pb.add(NR);
                        }
                        let q = acc.as_mut_ptr();
                        for (j, cj) in c.iter().enumerate() {
                            $zmm_store(q.add(j * MR), *cj);
                        }
                    }
                }

                /// AVX-512F over two adjacent packed panels sharing one `B` panel: the
                /// `2·MR × NR` tile in 16 `zmm` accumulators (`[panel][column]`), with
                /// 2 panel loads + 8 broadcasts + 16 FMAs per k step — enough
                /// independent chains to cover the FMA latency on both 512-bit ports
                /// while loading half the `A` bytes per FMA of an `NR = 4` tile.
                ///
                /// # Safety
                /// AVX-512F must be available; `ap0`/`ap1` must hold at least
                /// `kc * MR` elements and `bp` at least `kc * NR`.
                #[inline]
                #[target_feature(enable = "avx512f")]
                unsafe fn pair_tile(
                    kc: usize,
                    ap0: &[$t],
                    ap1: &[$t],
                    bp: &[$t],
                ) -> [[$zmm; NR]; 2] {
                    unsafe {
                        let mut c = [[$zmm_zero(); NR]; 2];
                        let (mut p0, mut p1) = (ap0.as_ptr(), ap1.as_ptr());
                        let mut pb = bp.as_ptr();
                        for _ in 0..kc {
                            let a0 = $zmm_load(p0);
                            let a1 = $zmm_load(p1);
                            for j in 0..NR {
                                let b = $zmm_set1(*pb.add(j));
                                c[0][j] = $zmm_fma(a0, b, c[0][j]);
                                c[1][j] = $zmm_fma(a1, b, c[1][j]);
                            }
                            p0 = p0.add(MR);
                            p1 = p1.add(MR);
                            pb = pb.add(NR);
                        }
                        c
                    }
                }

                /// The paired tile stored to two accumulator arrays, panel `ap0` to
                /// `acc0` and panel `ap1` to `acc1` (column stride `MR` in each).
                ///
                /// # Safety
                /// As [`pair_tile`], and both accumulators must hold `MR * NR` elements.
                #[target_feature(enable = "avx512f")]
                pub(in crate::elem) unsafe fn zmm_pair(
                    kc: usize,
                    ap0: &[$t],
                    ap1: &[$t],
                    bp: &[$t],
                    acc0: &mut [$t],
                    acc1: &mut [$t],
                ) {
                    unsafe {
                        let c = pair_tile(kc, ap0, ap1, bp);
                        let (q0, q1) = (acc0.as_mut_ptr(), acc1.as_mut_ptr());
                        for j in 0..NR {
                            $zmm_store(q0.add(j * MR), c[0][j]);
                            $zmm_store(q1.add(j * MR), c[1][j]);
                        }
                    }
                }

                /// The paired tile added into `C` from registers:
                /// `c[j][row0 + i] += alpha · tile[i, j]` for `i < 2·MR`, `j < NR`, as
                /// a multiply then an add (never an FMA), so each element rounds
                /// exactly as the scalar write-back does. The `C` tile is prefetched
                /// before the k loop so its lines arrive while the FMAs run.
                ///
                /// # Safety
                /// As [`pair_tile`]; `c` must hold `NR` columns, each at least
                /// `row0 + 2 * MR` long.
                #[target_feature(enable = "avx512f")]
                pub(in crate::elem) unsafe fn zmm_pair_fused(
                    kc: usize,
                    ap0: &[$t],
                    ap1: &[$t],
                    bp: &[$t],
                    alpha: $t,
                    c: &mut [&mut [$t]],
                    row0: usize,
                ) {
                    unsafe {
                        // Bounds-checked: each pointer starts a 2·MR-element row range.
                        let dst: [*mut $t; NR] =
                            std::array::from_fn(|j| c[j][row0..row0 + 2 * MR].as_mut_ptr());
                        // 2·MR elements are 128 bytes: three lines when unaligned.
                        for &d in &dst {
                            for off in [0, MR, 2 * MR - 1] {
                                _mm_prefetch::<_MM_HINT_T0>(d.add(off).cast::<i8>());
                            }
                        }
                        let tile = pair_tile(kc, ap0, ap1, bp);
                        let va = $zmm_set1(alpha);
                        for (j, &d) in dst.iter().enumerate() {
                            for (h, acc) in tile.iter().enumerate() {
                                let q = d.add(h * MR);
                                $zmm_store(q, $zmm_add($zmm_load(q), $zmm_mul(va, acc[j])));
                            }
                        }
                    }
                }
            }
        };
    }

    /// The [`crate::subst`] strip kernels compiled with each SIMD level's target
    /// features: the `#[inline(always)]` bodies are inlined into these wrappers, so
    /// their fixed-width strips vectorize at the level's register width.
    pub(super) mod subst {
        macro_rules! levels {
            ($name:ident, $ret:ty, ($($arg:ident: $ty:ty),*)) => {
                pub(in crate::elem) mod $name {
                    use crate::elem::Element;

                    /// # Safety
                    /// AVX-512F must be available.
                    #[target_feature(enable = "avx512f")]
                    pub(in crate::elem) unsafe fn avx512<E: Element>($($arg: $ty),*) -> $ret {
                        with_lanes!(E, 512, $name, ($($arg),*))
                    }

                    /// # Safety
                    /// AVX2 must be available.
                    #[target_feature(enable = "avx2")]
                    pub(in crate::elem) unsafe fn avx2<E: Element>($($arg: $ty),*) -> $ret {
                        with_lanes!(E, 256, $name, ($($arg),*))
                    }
                }
            };
        }
        levels!(solve_lanes, (), (sys: &crate::subst::Coupling<E>, cols: &mut [&mut [E]]));
        levels!(potf2_lanes, Result<(), usize>, (cols: &mut [&mut [E]], row0: usize));
    }

    x86_kernels!(
        f64k, f64, 8,
        ymm: _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd,
             _mm256_fmadd_pd;
        zmm: __m512d, _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd,
             _mm512_fmadd_pd, _mm512_mul_pd, _mm512_add_pd;
    );
    x86_kernels!(
        f32k, f32, 16,
        ymm: _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps,
             _mm256_fmadd_ps;
        zmm: __m512, _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps,
             _mm512_fmadd_ps, _mm512_mul_ps, _mm512_add_ps;
    );
}

// ---------------------------------------------------------------------------- f64 ----

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NAME: &'static str = "f64";
    const EPSILON: f64 = f64::EPSILON;
    const MR: usize = 8;
    const NR: usize = 8;
    // One packed A micro-panel is MR × KC = 16 KiB (L1); the MC × KC block of op(A) is
    // 256 KiB (L2); the packed op(B) buffer is bounded to KC × NC = 4 MiB.
    const DEFAULT_KC: usize = 256;
    const DEFAULT_MC: usize = 128;
    const DEFAULT_NC: usize = 2048;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn as_f64_cols<'a, 'b>(cols: &'a mut [&'b mut [f64]]) -> Option<&'a mut [&'b mut [f64]]> {
        Some(cols)
    }

    kernel_methods!(f64, f64k);

    fn with_pack_bufs<R>(f: impl FnOnce(&mut PackBufs<Self>) -> R) -> R {
        thread_local! {
            static BUFS: std::cell::RefCell<PackBufs<f64>> =
                std::cell::RefCell::new(PackBufs::default());
        }
        BUFS.with(|bufs| match bufs.try_borrow_mut() {
            Ok(mut bufs) => f(&mut bufs),
            // Re-entrancy (a future kernel calling back into a GEMM on the same
            // thread): fall back to fresh buffers instead of aliasing the scratch.
            Err(_) => f(&mut PackBufs::default()),
        })
    }
}

// ---------------------------------------------------------------------------- f32 ----

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NAME: &'static str = "f32";
    const EPSILON: f64 = f32::EPSILON as f64;
    // Double the lanes per vector register, so the micro-tile doubles its rows: one
    // 16-row panel is one zmm (or two ymm) per k step, same register budget as f64.
    const MR: usize = 16;
    const NR: usize = 8;
    // Same cache budgets as f64 in *bytes*: elements are half as wide, so KC doubles
    // (MR × KC panel = 32 KiB, MC × KC block = 256 KiB, KC × NC op(B) buffer = 8 MiB).
    const DEFAULT_KC: usize = 512;
    const DEFAULT_MC: usize = 128;
    const DEFAULT_NC: usize = 4096;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    kernel_methods!(f32, f32k);

    fn with_pack_bufs<R>(f: impl FnOnce(&mut PackBufs<Self>) -> R) -> R {
        thread_local! {
            static BUFS: std::cell::RefCell<PackBufs<f32>> =
                std::cell::RefCell::new(PackBufs::default());
        }
        BUFS.with(|bufs| match bufs.try_borrow_mut() {
            Ok(mut bufs) => f(&mut bufs),
            Err(_) => f(&mut PackBufs::default()),
        })
    }
}

// --------------------------------------------------------------- packing scratch ----

/// A 64-byte-aligned scratch buffer: packed panels start on cache-line boundaries so
/// the micro-kernel's 512-bit loads never straddle lines. Grows on demand and never
/// shrinks, so a thread-local instance amortizes its allocation across GEMM calls.
#[doc(hidden)]
#[derive(Default)]
pub struct AlignedBuf<E> {
    raw: Vec<E>,
    off: usize,
}

impl<E: Element> AlignedBuf<E> {
    /// A mutable view of the first `len` aligned elements, reallocating only when the
    /// current capacity is too small. Contents are unspecified; the packing routines
    /// overwrite every element they later read.
    pub(crate) fn slice_mut(&mut self, len: usize) -> &mut [E] {
        // align_offset is in element units; 64-byte alignment needs at most
        // 64 / size_of::<E>() - 1 extra elements. Recomputed on every reallocation
        // (the buffer may move).
        let pad = 64 / std::mem::size_of::<E>();
        if self.raw.len() < len + pad {
            self.raw = vec![E::ZERO; len + pad];
            self.off = self.raw.as_ptr().align_offset(64);
        }
        &mut self.raw[self.off..self.off + len]
    }

    /// Shared view of the first `len` aligned elements; `len` must not exceed a
    /// previously granted [`AlignedBuf::slice_mut`] length.
    pub(crate) fn slice(&self, len: usize) -> &[E] {
        &self.raw[self.off..self.off + len]
    }
}

/// The pair of packing buffers (`op(A)` panels, `op(B)` panels) a GEMM call works from.
#[doc(hidden)]
#[derive(Default)]
pub struct PackBufs<E> {
    pub(crate) a: AlignedBuf<E>,
    pub(crate) b: AlignedBuf<E>,
}

impl<E: Element> PackBufs<E> {
    /// Mutable views of the two buffers, each grown to at least the requested length.
    pub(crate) fn slices(&mut self, a_len: usize, b_len: usize) -> (&mut [E], &mut [E]) {
        (self.a.slice_mut(a_len), self.b.slice_mut(b_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-panel kernel with the signature of [`Element::micro_kernel`].
    type SingleKernel<E> = fn(usize, &[E], &[E], &mut [E]);

    /// Every single-panel backend this host can run, whichever one dispatch picks, so
    /// the AVX2 halves are exercised on AVX-512 hosts too.
    trait HostKernels: Element {
        fn singles() -> Vec<(&'static str, SingleKernel<Self>)>;
    }

    macro_rules! host_kernels {
        ($t:ty, $m:ident) => {
            impl HostKernels for $t {
                fn singles() -> Vec<(&'static str, SingleKernel<$t>)> {
                    let mut out: Vec<(&'static str, SingleKernel<$t>)> =
                        vec![("dispatched", <$t as Element>::micro_kernel)];
                    #[cfg(target_arch = "x86_64")]
                    {
                        fn check_lens(kc: usize, ap: &[$t], bp: &[$t], acc: &[$t]) {
                            let (mr, nr) = (<$t as Element>::MR, <$t as Element>::NR);
                            assert!(ap.len() >= kc * mr && bp.len() >= kc * nr);
                            assert!(acc.len() >= mr * nr);
                        }
                        if avx2_fma_available() {
                            out.push(("avx2 halves", |kc, ap, bp, acc| {
                                check_lens(kc, ap, bp, acc);
                                // SAFETY: only listed after the AVX2 + FMA check above;
                                // lengths checked, both half offsets are NR - 4 or less.
                                unsafe {
                                    x86::$m::avx2_half(kc, ap, bp, acc, 0);
                                    x86::$m::avx2_half(kc, ap, bp, acc, 4);
                                }
                            }));
                        }
                        if avx512_available() {
                            out.push(("zmm single", |kc, ap, bp, acc| {
                                check_lens(kc, ap, bp, acc);
                                // SAFETY: only listed after the AVX-512F check above;
                                // lengths checked.
                                unsafe { x86::$m::zmm_single(kc, ap, bp, acc) };
                            }));
                        }
                    }
                    out
                }
            }
        };
    }
    host_kernels!(f64, f64k);
    host_kernels!(f32, f32k);

    /// `n` reproducible values in `[-1, 1)` with full mantissas, so products round and
    /// FMA and mul+add differ: integer-valued inputs would hide a rounding change.
    fn values<E: Element>(n: usize, seed: u64) -> Vec<E> {
        (0..n as u64)
            .map(|i| {
                let x = (i + 1)
                    .wrapping_add(seed << 32)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                E::from_f64((x >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
            })
            .collect()
    }

    fn bits<E: Element>(xs: &[E]) -> Vec<u64> {
        xs.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    const KCS: [usize; 3] = [1, 19, 256];

    #[test]
    fn f32_and_f64_kernels_match_scalar_reference() {
        fn check<E: HostKernels>() {
            let tile = E::MR * E::NR;
            for kc in KCS {
                let ap: Vec<E> = values(kc * E::MR, 1);
                let bp: Vec<E> = values(kc * E::NR, 2);
                let mut scalar = [E::ZERO; MAX_TILE];
                micro_kernel_scalar::<E>(kc, &ap, &bp, &mut scalar);
                let mut first: Option<Vec<u64>> = None;
                for (name, kernel) in E::singles() {
                    let mut acc = [E::from_f64(1e30); MAX_TILE]; // overwritten, not accumulated
                    kernel(kc, &ap, &bp, &mut acc);
                    // Every backend the host runs agrees bit for bit ...
                    let got = bits(&acc[..tile]);
                    let first = first.get_or_insert_with(|| got.clone());
                    assert_eq!(
                        &got,
                        first,
                        "{} {name} differs from the dispatched kernel at kc={kc}",
                        E::NAME
                    );
                    // ... and with the scalar kernel within its double rounding.
                    for (idx, (s, d)) in scalar.iter().zip(&acc).take(tile).enumerate() {
                        let (i, j) = (idx % E::MR, idx / E::MR);
                        let mag: f64 = (0..kc)
                            .map(|k| {
                                (ap[k * E::MR + i].to_f64() * bp[k * E::NR + j].to_f64()).abs()
                            })
                            .sum();
                        let tol = 2.0 * kc as f64 * E::EPSILON * mag;
                        let (s, d) = (s.to_f64(), d.to_f64());
                        assert!(
                            (s - d).abs() <= tol,
                            "{} {name} vs scalar at kc={kc}: {s} vs {d}",
                            E::NAME
                        );
                    }
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn paired_kernels_agree_with_singles() {
        fn check<E: HostKernels>() {
            if !E::pair_panels() {
                return; // nothing to compare on this host
            }
            let (mr, nr) = (E::MR, E::NR);
            let tile = mr * nr;
            let row0 = 5; // unaligned, with rows above and below the tile left alone
            let len = row0 + 2 * mr + 3;
            for kc in KCS {
                let ap0: Vec<E> = values(kc * mr, 3);
                let ap1: Vec<E> = values(kc * mr, 4);
                let bp: Vec<E> = values(kc * nr, 5);
                let nan = E::from_f64(f64::NAN);
                let (mut p0, mut p1) = ([nan; MAX_TILE], [nan; MAX_TILE]);
                E::micro_kernel_x2(kc, &ap0, &ap1, &bp, &mut p0, &mut p1);
                for (name, kernel) in E::singles() {
                    let (mut s0, mut s1) = ([nan; MAX_TILE], [nan; MAX_TILE]);
                    kernel(kc, &ap0, &bp, &mut s0);
                    kernel(kc, &ap1, &bp, &mut s1);
                    assert_eq!(
                        bits(&p0[..tile]),
                        bits(&s0[..tile]),
                        "{} paired vs {name}, kc={kc}",
                        E::NAME
                    );
                    assert_eq!(
                        bits(&p1[..tile]),
                        bits(&s1[..tile]),
                        "{} paired vs {name}, kc={kc}",
                        E::NAME
                    );
                }
                for alpha in [1.0, -1.0, 0.37] {
                    let alpha = E::from_f64(alpha);
                    let c0: Vec<Vec<E>> = (0..nr).map(|j| values(len, 6 + j as u64)).collect();
                    // The scalar write-back: one multiply, one add per element.
                    let mut expect = c0.clone();
                    for (j, col) in expect.iter_mut().enumerate() {
                        let tile_col = p0[j * mr..(j + 1) * mr]
                            .iter()
                            .chain(&p1[j * mr..(j + 1) * mr]);
                        for (d, &s) in col[row0..].iter_mut().zip(tile_col) {
                            *d += alpha * s;
                        }
                    }
                    let mut fused = c0.clone();
                    let mut cols: Vec<&mut [E]> =
                        fused.iter_mut().map(|c| c.as_mut_slice()).collect();
                    E::micro_kernel_x2_fused(kc, &ap0, &ap1, &bp, alpha, &mut cols, row0);
                    for (j, (e, f)) in expect.iter().zip(&fused).enumerate() {
                        assert_eq!(
                            bits(e),
                            bits(f),
                            "{} fused write-back differs in column {j}, kc={kc}, alpha={alpha:?}",
                            E::NAME
                        );
                    }
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    /// Every substitution level the host runs: the portable build and each SIMD
    /// wrapper the dispatch may pick.
    fn subst_levels<E: Element>() -> Vec<(&'static str, SubstLevel<E>)> {
        let mut out: Vec<(&'static str, SubstLevel<E>)> = vec![(
            "portable",
            SubstLevel {
                solve: |sys, cols| with_lanes!(E, 128, solve_lanes, (sys, cols)),
                potf2: |cols, row0| with_lanes!(E, 128, potf2_lanes, (cols, row0)),
            },
        )];
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_fma_available() {
                out.push((
                    "avx2",
                    SubstLevel {
                        // SAFETY: only listed after the AVX2 check above.
                        solve: |sys, cols| unsafe { x86::subst::solve_lanes::avx2(sys, cols) },
                        // SAFETY: as above.
                        potf2: |cols, row0| unsafe { x86::subst::potf2_lanes::avx2(cols, row0) },
                    },
                ));
            }
            if avx512_available() {
                out.push((
                    "avx512",
                    SubstLevel {
                        // SAFETY: only listed after the AVX-512F check above.
                        solve: |sys, cols| unsafe { x86::subst::solve_lanes::avx512(sys, cols) },
                        // SAFETY: as above.
                        potf2: |cols, row0| unsafe { x86::subst::potf2_lanes::avx512(cols, row0) },
                    },
                ));
            }
        }
        out
    }

    struct SubstLevel<E> {
        solve: fn(&Coupling<E>, &mut [&mut [E]]),
        potf2: fn(&mut [&mut [E]], usize) -> Result<(), usize>,
    }

    #[test]
    fn substitution_levels_match_the_scalar_loops() {
        use crate::blas1::axpy;
        use crate::blas3::Diag;
        fn check<E: Element>() {
            // 150 lanes: full strips at every level, then 8-lane and 1-lane tails.
            let (n, lanes) = (37, 150);
            let coef: Vec<E> = values(n * n, 7);
            // Exact zeros in the coefficients (whole rows of them for every sixth
            // unknown) and signed zeros in the data: `-0 − 0·x` is `+0` for a negative
            // `x`, so a skipped zero coefficient leaves a sign the scalar loop keeps.
            let coef_at = |t: usize, s: usize| {
                if ((t * 7 + s * 3).is_multiple_of(5) || t % 6 == 2) && t != s {
                    E::ZERO
                } else if t == s {
                    E::from_f64(2.0) + coef[t * n + s].abs()
                } else {
                    coef[t * n + s]
                }
            };
            let data: Vec<Vec<E>> = (0..n)
                .map(|t| {
                    let mut col = values::<E>(lanes, 100 + t as u64);
                    col.iter_mut()
                        .step_by(6 + t % 3)
                        .for_each(|v| *v = -E::ZERO);
                    col
                })
                .collect();
            for backward in [false, true] {
                for skip_zeros in [false, true] {
                    for diag in [Diag::Unit, Diag::NonUnit] {
                        let sys = Coupling::new(n, backward, diag, skip_zeros, coef_at);
                        // The scalar substitution, lane by lane.
                        let mut expect = data.clone();
                        for lane in 0..lanes {
                            let mut x: Vec<E> = expect.iter().map(|col| col[lane]).collect();
                            let order: Vec<usize> = if backward {
                                (0..n).rev().collect()
                            } else {
                                (0..n).collect()
                            };
                            for t in order {
                                let srcs = if backward { t + 1..n } else { 0..t };
                                for s in srcs {
                                    let c = coef_at(t, s);
                                    if !(skip_zeros && c == E::ZERO) {
                                        let xs = x[s];
                                        x[t] -= c * xs;
                                    }
                                }
                                if diag == Diag::NonUnit {
                                    x[t] /= coef_at(t, t);
                                }
                            }
                            for (col, &v) in expect.iter_mut().zip(&x) {
                                col[lane] = v;
                            }
                        }
                        for (name, level) in subst_levels::<E>() {
                            let mut got = data.clone();
                            let mut cols: Vec<&mut [E]> =
                                got.iter_mut().map(|c| c.as_mut_slice()).collect();
                            (level.solve)(&sys, &mut cols);
                            for (t, (e, g)) in expect.iter().zip(&got).enumerate() {
                                assert_eq!(
                                    bits(e),
                                    bits(g),
                                    "{} {name}: unknown {t}, backward={backward}, \
                                     skip={skip_zeros}, {diag:?}",
                                    E::NAME
                                );
                            }
                        }
                    }
                }
            }
            // potf2 on a diagonal block at row 5 of 80-row columns: the axpy loop of
            // the blocked Cholesky it replaced, against every level.
            let (nb, row0, rows) = (70, 5, 80);
            let spd: Vec<Vec<E>> = (0..nb)
                .map(|j| {
                    let mut col = values::<E>(rows, 300 + j as u64);
                    col[row0 + j] = E::from_f64(nb as f64);
                    col
                })
                .collect();
            let mut expect = spd.clone();
            for j in 0..nb {
                let (done, rest) = expect.split_at_mut(j);
                for lk in done.iter() {
                    let rows = row0 + j..row0 + nb;
                    axpy(-lk[row0 + j], &lk[rows.clone()], &mut rest[0][rows]);
                }
                let d = expect[j][row0 + j].sqrt();
                expect[j][row0 + j] = d;
                let inv = E::ONE / d;
                for v in &mut expect[j][row0 + j + 1..row0 + nb] {
                    *v *= inv;
                }
            }
            for (name, level) in subst_levels::<E>() {
                let mut got = spd.clone();
                let mut cols: Vec<&mut [E]> = got.iter_mut().map(|c| c.as_mut_slice()).collect();
                assert_eq!((level.potf2)(&mut cols, row0), Ok(()), "{} {name}", E::NAME);
                for (j, (e, g)) in expect.iter().zip(&got).enumerate() {
                    assert_eq!(bits(e), bits(g), "{} {name}: potf2 column {j}", E::NAME);
                }
                // A non-positive pivot names its column.
                let mut bad = spd.clone();
                bad[3][row0 + 3] = -E::ONE;
                let mut cols: Vec<&mut [E]> = bad.iter_mut().map(|c| c.as_mut_slice()).collect();
                assert_eq!((level.potf2)(&mut cols, row0), Err(3), "{} {name}", E::NAME);
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn element_constants_are_consistent() {
        fn check<E: Element>() {
            assert!(E::DEFAULT_MC.is_multiple_of(E::MR), "{}: MC % MR != 0", E::NAME);
            assert!(E::DEFAULT_NC.is_multiple_of(E::NR), "{}: NC % NR != 0", E::NAME);
            assert!(E::MR * E::NR <= MAX_TILE);
            assert_eq!(E::from_f64(1.5).to_f64(), 1.5);
            assert_eq!(E::ZERO.to_f64(), 0.0);
            assert_eq!(E::ONE.to_f64(), 1.0);
            assert!(!E::from_f64(f64::NAN).is_finite());
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn f32_tile_has_double_the_rows() {
        assert_eq!(<f32 as Element>::MR, 2 * <f64 as Element>::MR);
        assert_eq!(<f32 as Element>::NR, <f64 as Element>::NR);
    }
}
