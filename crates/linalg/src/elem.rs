//! Element-type abstraction of the packed kernel core.
//!
//! The BLIS-style GEMM machinery in `crate::kernel` and the level-3 kernels in
//! [`crate::blas3`] are generic over the scalar type through this trait. Two element
//! types are supported:
//!
//! * **`f64`** — the default everywhere; the original 8×4 micro-kernel (one `ymm` pair
//!   per panel on AVX2+FMA, paired 8-row panels in `zmm` registers on AVX-512F).
//! * **`f32`** — double the lanes per vector, so the micro-tile widens to 16×4: on
//!   AVX2+FMA one panel is two `ymm` loads, on AVX-512F one panel is exactly one `zmm`
//!   load and the paired-panel kernel drives a 32×4 virtual tile from 8 `zmm`
//!   accumulators. This is the raw-speed half of the mixed-precision mode: factor in
//!   f32 at ~2× the FLOP rate, then let the f64 checksum/refinement layer restore f64
//!   quality (see `bsr-core`'s `Precision::MixedF32`).
//!
//! Each element type carries its own micro-tile geometry (`MR`/`NR`), its own
//! cache-blocking parameters (reported by [`crate::tune`]) and its own thread-local
//! packing scratch.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

/// Upper bound of `MR * NR` over all element types; micro-kernel accumulators are
/// fixed-size arrays of this length, sliced down to the type's real tile.
pub(crate) const MAX_TILE: usize = 64;

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

    /// True when [`Element::micro_kernel_x2`] should be used for adjacent panel pairs
    /// (AVX-512F hosts, where the paired kernel saturates dual 512-bit FMA units).
    fn pair_panels() -> bool;

    /// Paired-panel micro-kernel: like two [`Element::micro_kernel`] calls sharing one
    /// `op(B)` panel, with enough independent FMA chains to fill wide cores. Only
    /// called when [`Element::pair_panels`] returns true.
    fn micro_kernel_x2(
        kc: usize,
        ap0: &[Self],
        ap1: &[Self],
        bp: &[Self],
        acc0: &mut [Self],
        acc1: &mut [Self],
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

// ---------------------------------------------------------------------------- f64 ----

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NAME: &'static str = "f64";
    const EPSILON: f64 = f64::EPSILON;
    const MR: usize = 8;
    const NR: usize = 4;
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

    #[inline]
    fn micro_kernel(kc: usize, ap: &[Self], bp: &[Self], acc: &mut [Self]) {
        debug_assert!(ap.len() >= kc * 8 && bp.len() >= kc * 4 && acc.len() >= 32);
        #[cfg(target_arch = "x86_64")]
        if avx2_fma_available() {
            // SAFETY: AVX2 + FMA presence was checked at runtime; panel lengths are
            // asserted above and the kernel reads exactly kc*MR / kc*NR elements.
            unsafe { micro_kernel_avx2_f64(kc, ap, bp, acc) };
            return;
        }
        micro_kernel_scalar::<f64>(kc, ap, bp, acc);
    }

    #[inline]
    fn pair_panels() -> bool {
        avx512_available()
    }

    #[inline]
    fn micro_kernel_x2(
        kc: usize,
        ap0: &[Self],
        ap1: &[Self],
        bp: &[Self],
        acc0: &mut [Self],
        acc1: &mut [Self],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            debug_assert!(ap0.len() >= kc * 8 && ap1.len() >= kc * 8 && bp.len() >= kc * 4);
            debug_assert!(acc0.len() >= 32 && acc1.len() >= 32);
            // SAFETY: pair_panels() gated this call on AVX-512F; lengths asserted above.
            unsafe { micro_kernel_avx512_x2_f64(kc, ap0, ap1, bp, acc0, acc1) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            micro_kernel_scalar::<f64>(kc, ap0, bp, acc0);
            micro_kernel_scalar::<f64>(kc, ap1, bp, acc1);
        }
    }

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

/// AVX2 + FMA `f64` micro-kernel: the full 8×4 accumulator tile lives in 8 `ymm`
/// registers, with 2 loads + 4 broadcasts + 8 FMAs per k step.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available and that `ap`/`bp`/`acc` hold at
/// least `kc * 8` / `kc * 4` / `32` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_avx2_f64(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [f64]) {
    use std::arch::x86_64::*;
    unsafe {
        let mut c00 = _mm256_setzero_pd();
        let mut c01 = _mm256_setzero_pd();
        let mut c10 = _mm256_setzero_pd();
        let mut c11 = _mm256_setzero_pd();
        let mut c20 = _mm256_setzero_pd();
        let mut c21 = _mm256_setzero_pd();
        let mut c30 = _mm256_setzero_pd();
        let mut c31 = _mm256_setzero_pd();
        let mut ap_ptr = ap.as_ptr();
        let mut bp_ptr = bp.as_ptr();
        for _ in 0..kc {
            let a0 = _mm256_loadu_pd(ap_ptr);
            let a1 = _mm256_loadu_pd(ap_ptr.add(4));
            let b0 = _mm256_set1_pd(*bp_ptr);
            c00 = _mm256_fmadd_pd(a0, b0, c00);
            c01 = _mm256_fmadd_pd(a1, b0, c01);
            let b1 = _mm256_set1_pd(*bp_ptr.add(1));
            c10 = _mm256_fmadd_pd(a0, b1, c10);
            c11 = _mm256_fmadd_pd(a1, b1, c11);
            let b2 = _mm256_set1_pd(*bp_ptr.add(2));
            c20 = _mm256_fmadd_pd(a0, b2, c20);
            c21 = _mm256_fmadd_pd(a1, b2, c21);
            let b3 = _mm256_set1_pd(*bp_ptr.add(3));
            c30 = _mm256_fmadd_pd(a0, b3, c30);
            c31 = _mm256_fmadd_pd(a1, b3, c31);
            ap_ptr = ap_ptr.add(8);
            bp_ptr = bp_ptr.add(4);
        }
        let p = acc.as_mut_ptr();
        _mm256_storeu_pd(p, c00);
        _mm256_storeu_pd(p.add(4), c01);
        _mm256_storeu_pd(p.add(8), c10);
        _mm256_storeu_pd(p.add(12), c11);
        _mm256_storeu_pd(p.add(16), c20);
        _mm256_storeu_pd(p.add(20), c21);
        _mm256_storeu_pd(p.add(24), c30);
        _mm256_storeu_pd(p.add(28), c31);
    }
}

/// AVX-512 `f64` micro-kernel over **two adjacent packed `A` panels** at once: one
/// `MR = 8` row panel is exactly one `zmm` register, so a 16×4 virtual tile fits in 8
/// `zmm` accumulators and each k step is 2 loads + 4 broadcasts + 8 FMAs — enough
/// independent chains to saturate CPUs with dual 512-bit FMA units, where the 8-row
/// AVX2 kernel tops out at half the machine's peak.
///
/// # Safety
/// Caller must ensure AVX-512F is available and that `ap0`/`ap1` hold at least
/// `kc * 8`, `bp` at least `kc * 4`, and both accumulators at least `32` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_avx512_x2_f64(
    kc: usize,
    ap0: &[f64],
    ap1: &[f64],
    bp: &[f64],
    acc0: &mut [f64],
    acc1: &mut [f64],
) {
    use std::arch::x86_64::*;
    unsafe {
        let mut c00 = _mm512_setzero_pd();
        let mut c01 = _mm512_setzero_pd();
        let mut c10 = _mm512_setzero_pd();
        let mut c11 = _mm512_setzero_pd();
        let mut c20 = _mm512_setzero_pd();
        let mut c21 = _mm512_setzero_pd();
        let mut c30 = _mm512_setzero_pd();
        let mut c31 = _mm512_setzero_pd();
        let mut p0 = ap0.as_ptr();
        let mut p1 = ap1.as_ptr();
        let mut pb = bp.as_ptr();
        // One k step: 2 aligned panel loads + 4 broadcasts + 8 independent FMA chains.
        macro_rules! k_step {
            ($off:expr) => {
                let a0 = _mm512_loadu_pd(p0.add($off * 8));
                let a1 = _mm512_loadu_pd(p1.add($off * 8));
                let b0 = _mm512_set1_pd(*pb.add($off * 4));
                c00 = _mm512_fmadd_pd(a0, b0, c00);
                c01 = _mm512_fmadd_pd(a1, b0, c01);
                let b1 = _mm512_set1_pd(*pb.add($off * 4 + 1));
                c10 = _mm512_fmadd_pd(a0, b1, c10);
                c11 = _mm512_fmadd_pd(a1, b1, c11);
                let b2 = _mm512_set1_pd(*pb.add($off * 4 + 2));
                c20 = _mm512_fmadd_pd(a0, b2, c20);
                c21 = _mm512_fmadd_pd(a1, b2, c21);
                let b3 = _mm512_set1_pd(*pb.add($off * 4 + 3));
                c30 = _mm512_fmadd_pd(a0, b3, c30);
                c31 = _mm512_fmadd_pd(a1, b3, c31);
            };
        }
        let mut k = 0;
        while k + 2 <= kc {
            k_step!(0);
            k_step!(1);
            p0 = p0.add(16);
            p1 = p1.add(16);
            pb = pb.add(8);
            k += 2;
        }
        if k < kc {
            k_step!(0);
        }
        let q0 = acc0.as_mut_ptr();
        _mm512_storeu_pd(q0, c00);
        _mm512_storeu_pd(q0.add(8), c10);
        _mm512_storeu_pd(q0.add(16), c20);
        _mm512_storeu_pd(q0.add(24), c30);
        let q1 = acc1.as_mut_ptr();
        _mm512_storeu_pd(q1, c01);
        _mm512_storeu_pd(q1.add(8), c11);
        _mm512_storeu_pd(q1.add(16), c21);
        _mm512_storeu_pd(q1.add(24), c31);
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
    const NR: usize = 4;
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

    #[inline]
    fn micro_kernel(kc: usize, ap: &[Self], bp: &[Self], acc: &mut [Self]) {
        debug_assert!(ap.len() >= kc * 16 && bp.len() >= kc * 4 && acc.len() >= 64);
        #[cfg(target_arch = "x86_64")]
        if avx2_fma_available() {
            // SAFETY: AVX2 + FMA presence was checked at runtime; panel lengths are
            // asserted above and the kernel reads exactly kc*MR / kc*NR elements.
            unsafe { micro_kernel_avx2_f32(kc, ap, bp, acc) };
            return;
        }
        micro_kernel_scalar::<f32>(kc, ap, bp, acc);
    }

    #[inline]
    fn pair_panels() -> bool {
        avx512_available()
    }

    #[inline]
    fn micro_kernel_x2(
        kc: usize,
        ap0: &[Self],
        ap1: &[Self],
        bp: &[Self],
        acc0: &mut [Self],
        acc1: &mut [Self],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            debug_assert!(ap0.len() >= kc * 16 && ap1.len() >= kc * 16 && bp.len() >= kc * 4);
            debug_assert!(acc0.len() >= 64 && acc1.len() >= 64);
            // SAFETY: pair_panels() gated this call on AVX-512F; lengths asserted above.
            unsafe { micro_kernel_avx512_x2_f32(kc, ap0, ap1, bp, acc0, acc1) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            micro_kernel_scalar::<f32>(kc, ap0, bp, acc0);
            micro_kernel_scalar::<f32>(kc, ap1, bp, acc1);
        }
    }

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

/// AVX2 + FMA `f32` micro-kernel: the 16×4 tile lives in 8 `ymm` registers (two per
/// output column, 8 lanes each), with 2 loads + 4 broadcasts + 8 FMAs per k step —
/// the same instruction mix as the f64 kernel at twice the elements per instruction.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available and that `ap`/`bp`/`acc` hold at
/// least `kc * 16` / `kc * 4` / `64` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_avx2_f32(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [f32]) {
    use std::arch::x86_64::*;
    unsafe {
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut ap_ptr = ap.as_ptr();
        let mut bp_ptr = bp.as_ptr();
        for _ in 0..kc {
            let a0 = _mm256_loadu_ps(ap_ptr);
            let a1 = _mm256_loadu_ps(ap_ptr.add(8));
            let b0 = _mm256_set1_ps(*bp_ptr);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a1, b0, c01);
            let b1 = _mm256_set1_ps(*bp_ptr.add(1));
            c10 = _mm256_fmadd_ps(a0, b1, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let b2 = _mm256_set1_ps(*bp_ptr.add(2));
            c20 = _mm256_fmadd_ps(a0, b2, c20);
            c21 = _mm256_fmadd_ps(a1, b2, c21);
            let b3 = _mm256_set1_ps(*bp_ptr.add(3));
            c30 = _mm256_fmadd_ps(a0, b3, c30);
            c31 = _mm256_fmadd_ps(a1, b3, c31);
            ap_ptr = ap_ptr.add(16);
            bp_ptr = bp_ptr.add(4);
        }
        let p = acc.as_mut_ptr();
        _mm256_storeu_ps(p, c00);
        _mm256_storeu_ps(p.add(8), c01);
        _mm256_storeu_ps(p.add(16), c10);
        _mm256_storeu_ps(p.add(24), c11);
        _mm256_storeu_ps(p.add(32), c20);
        _mm256_storeu_ps(p.add(40), c21);
        _mm256_storeu_ps(p.add(48), c30);
        _mm256_storeu_ps(p.add(56), c31);
    }
}

/// AVX-512 `f32` micro-kernel over two adjacent packed `A` panels: one `MR = 16` row
/// panel is exactly one `zmm` register (16 f32 lanes), so the paired 32×4 virtual tile
/// fits in 8 `zmm` accumulators with 2 loads + 4 broadcasts + 8 FMAs per k step —
/// identical shape to the f64 paired kernel at double the elements per instruction.
///
/// # Safety
/// Caller must ensure AVX-512F is available and that `ap0`/`ap1` hold at least
/// `kc * 16`, `bp` at least `kc * 4`, and both accumulators at least `64` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_avx512_x2_f32(
    kc: usize,
    ap0: &[f32],
    ap1: &[f32],
    bp: &[f32],
    acc0: &mut [f32],
    acc1: &mut [f32],
) {
    use std::arch::x86_64::*;
    unsafe {
        let mut c00 = _mm512_setzero_ps();
        let mut c01 = _mm512_setzero_ps();
        let mut c10 = _mm512_setzero_ps();
        let mut c11 = _mm512_setzero_ps();
        let mut c20 = _mm512_setzero_ps();
        let mut c21 = _mm512_setzero_ps();
        let mut c30 = _mm512_setzero_ps();
        let mut c31 = _mm512_setzero_ps();
        let mut p0 = ap0.as_ptr();
        let mut p1 = ap1.as_ptr();
        let mut pb = bp.as_ptr();
        macro_rules! k_step {
            ($off:expr) => {
                let a0 = _mm512_loadu_ps(p0.add($off * 16));
                let a1 = _mm512_loadu_ps(p1.add($off * 16));
                let b0 = _mm512_set1_ps(*pb.add($off * 4));
                c00 = _mm512_fmadd_ps(a0, b0, c00);
                c01 = _mm512_fmadd_ps(a1, b0, c01);
                let b1 = _mm512_set1_ps(*pb.add($off * 4 + 1));
                c10 = _mm512_fmadd_ps(a0, b1, c10);
                c11 = _mm512_fmadd_ps(a1, b1, c11);
                let b2 = _mm512_set1_ps(*pb.add($off * 4 + 2));
                c20 = _mm512_fmadd_ps(a0, b2, c20);
                c21 = _mm512_fmadd_ps(a1, b2, c21);
                let b3 = _mm512_set1_ps(*pb.add($off * 4 + 3));
                c30 = _mm512_fmadd_ps(a0, b3, c30);
                c31 = _mm512_fmadd_ps(a1, b3, c31);
            };
        }
        let mut k = 0;
        while k + 2 <= kc {
            k_step!(0);
            k_step!(1);
            p0 = p0.add(32);
            p1 = p1.add(32);
            pb = pb.add(8);
            k += 2;
        }
        if k < kc {
            k_step!(0);
        }
        let q0 = acc0.as_mut_ptr();
        _mm512_storeu_ps(q0, c00);
        _mm512_storeu_ps(q0.add(16), c10);
        _mm512_storeu_ps(q0.add(32), c20);
        _mm512_storeu_ps(q0.add(48), c30);
        let q1 = acc1.as_mut_ptr();
        _mm512_storeu_ps(q1, c01);
        _mm512_storeu_ps(q1.add(16), c11);
        _mm512_storeu_ps(q1.add(32), c21);
        _mm512_storeu_ps(q1.add(48), c31);
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

    #[test]
    fn f32_and_f64_kernels_match_scalar_reference() {
        fn check<E: Element>(tol: f64) {
            let kc = 19;
            let ap: Vec<E> = (0..kc * E::MR).map(|i| E::from_f64((i % 13) as f64 - 6.0)).collect();
            let bp: Vec<E> =
                (0..kc * E::NR).map(|i| E::from_f64((i % 7) as f64 * 0.5 - 1.5)).collect();
            let mut scalar = [E::ZERO; MAX_TILE];
            micro_kernel_scalar::<E>(kc, &ap, &bp, &mut scalar);
            let mut dispatched = [E::from_f64(1e30); MAX_TILE]; // overwritten, not accumulated
            E::micro_kernel(kc, &ap, &bp, &mut dispatched);
            for (s, d) in scalar.iter().zip(dispatched.iter()).take(E::MR * E::NR) {
                let (s, d) = (s.to_f64(), d.to_f64());
                assert!((s - d).abs() < tol, "{} micro-kernel backends disagree: {s} vs {d}", E::NAME);
            }
        }
        check::<f64>(1e-9);
        check::<f32>(1e-3);
    }

    #[test]
    fn paired_kernels_agree_with_singles() {
        fn check<E: Element>(tol: f64) {
            if !E::pair_panels() {
                return; // nothing to compare on this host
            }
            let kc = 33;
            let ap0: Vec<E> = (0..kc * E::MR).map(|i| E::from_f64((i % 11) as f64 - 5.0)).collect();
            let ap1: Vec<E> = (0..kc * E::MR).map(|i| E::from_f64((i % 9) as f64 * 0.25)).collect();
            let bp: Vec<E> = (0..kc * E::NR).map(|i| E::from_f64((i % 5) as f64 - 2.0)).collect();
            let (mut s0, mut s1) = ([E::ZERO; MAX_TILE], [E::ZERO; MAX_TILE]);
            micro_kernel_scalar::<E>(kc, &ap0, &bp, &mut s0);
            micro_kernel_scalar::<E>(kc, &ap1, &bp, &mut s1);
            let nan = E::from_f64(f64::NAN);
            let (mut p0, mut p1) = ([nan; MAX_TILE], [nan; MAX_TILE]);
            E::micro_kernel_x2(kc, &ap0, &ap1, &bp, &mut p0, &mut p1);
            let tile = E::MR * E::NR;
            for (s, p) in s0
                .iter()
                .zip(p0.iter())
                .take(tile)
                .chain(s1.iter().zip(p1.iter()).take(tile))
            {
                let (s, p) = (s.to_f64(), p.to_f64());
                assert!((s - p).abs() < tol, "{} paired kernel disagrees: {s} vs {p}", E::NAME);
            }
        }
        check::<f64>(1e-9);
        check::<f32>(1e-3);
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
