//! Level-1 BLAS style helpers on slices.
//!
//! These are the scalar building blocks of the panel factorizations; the heavy lifting is
//! done by the level-3 kernels in [`crate::blas3`]. The three the slice-native panel
//! kernels are built from ([`axpy`], [`scal`], [`iamax`]) are generic over [`Element`].

use crate::elem::Element;

/// Dot product of two equally long slices.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<E: Element>(alpha: E, x: &[E], y: &mut [E]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal<E: Element>(alpha: E, x: &mut [E]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm of a slice.
#[inline]
pub fn nrm2(x: &[f64]) -> f64 {
    // Scaled accumulation to avoid overflow/underflow for extreme values.
    let maxabs = x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    if maxabs == 0.0 {
        return 0.0;
    }
    let sum: f64 = x.iter().map(|&v| (v / maxabs) * (v / maxabs)).sum();
    maxabs * sum.sqrt()
}

/// Index of the element with the largest absolute value.
///
/// Edge semantics (BLAS `idamax` conventions):
/// * an empty slice returns `0` — callers indexing with the result must check
///   `x.is_empty()` themselves;
/// * `NaN` elements are never selected (every comparison against the running maximum is
///   false), so an all-NaN slice also returns `0`. Callers that must reject NaN pivots
///   (e.g. the LU panel) still have to test the selected element themselves — `NaN`
///   compares unequal to `0.0`, so a plain zero check does not catch it.
#[inline]
pub fn iamax<E: Element>(x: &[E]) -> usize {
    let mut best = 0;
    // Any finite |v| (including 0.0) beats the initial -1.0; NaN beats nothing.
    let mut best_val = -E::ONE;
    for (i, &v) in x.iter().enumerate() {
        if v.abs() > best_val {
            best_val = v.abs();
            best = i;
        }
    }
    best
}

/// Sum of the elements of a slice.
#[inline]
pub fn asum(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [3.0, 4.5, 6.0]);
    }

    #[test]
    fn nrm2_is_euclidean_and_robust() {
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
        // No overflow for large values.
        let big = nrm2(&[1e200, 1e200]);
        assert!((big - 1e200 * 2.0_f64.sqrt()).abs() / big < 1e-12);
    }

    #[test]
    fn iamax_finds_largest_magnitude() {
        assert_eq!(iamax(&[1.0, -7.0, 3.0]), 1);
        assert_eq!(iamax(&[0.0]), 0);
    }

    #[test]
    fn iamax_empty_slice_returns_zero() {
        assert_eq!(iamax::<f64>(&[]), 0);
    }

    #[test]
    fn iamax_skips_nans() {
        // NaN never wins, in any position.
        assert_eq!(iamax(&[f64::NAN, 2.0, -5.0]), 2);
        assert_eq!(iamax(&[2.0, f64::NAN]), 0);
        // All-NaN (and all-negative-zero) degenerate to index 0.
        assert_eq!(iamax(&[f64::NAN, f64::NAN]), 0);
        assert_eq!(iamax(&[-0.0, 0.0]), 0);
        // Infinities are legitimate magnitudes.
        assert_eq!(iamax(&[1.0, f64::NEG_INFINITY, 3.0]), 1);
    }

    #[test]
    fn asum_sums_magnitudes() {
        assert_eq!(asum(&[1.0, -2.0, 3.0]), 6.0);
    }
}
