//! The packed-kernel blocking parameters.
//!
//! `NC`/`KC`/`MC` and the pool-dispatch crossover (`parallel_degree`'s madd threshold)
//! are compiled constants of each element type ([`Element`]'s `DEFAULT_*`), sized from
//! the cache hierarchy rather than probed at startup: every process on every host runs
//! the same blocking, so the inner-dimension summation grouping — and therefore the
//! bits of every GEMM — never depends on where or how the binary was built.

use crate::elem::Element;

/// Cache-blocking and parallel-crossover parameters for one element type, plus where
/// they came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelParams {
    /// Column block: bounds the packed `op(B)` buffer to `kc × nc` elements.
    /// Multiple of the element type's `NR`.
    pub nc: usize,
    /// Inner-dimension block: one packed `A` micro-panel is `MR × kc`.
    pub kc: usize,
    /// Row block: the packed `mc × kc` block of `op(A)` targets L2. Multiple of `MR`.
    pub mc: usize,
    /// Madd count above which a level-3 call splits across the thread pool.
    pub par_madds: usize,
    /// Provenance, recorded next to measurements: always `"defaults"` (compiled).
    pub source: &'static str,
}

impl KernelParams {
    /// The compiled-in parameters for `E`.
    pub const fn defaults<E: Element>() -> Self {
        KernelParams {
            nc: E::DEFAULT_NC,
            kc: E::DEFAULT_KC,
            mc: E::DEFAULT_MC,
            par_madds: E::DEFAULT_PAR_MADDS,
            source: "defaults",
        }
    }
}

/// The parameters the packed kernels run `E` under.
pub fn params<E: Element>() -> &'static KernelParams {
    const { &KernelParams::defaults::<E>() }
}

/// The parameters of both supported element types, for recording an operating point.
pub fn report() -> Vec<KernelParams> {
    vec![params::<f64>().clone(), params::<f32>().clone()]
}

/// Element names matching [`report`]'s order.
pub fn report_names() -> [&'static str; 2] {
    [<f64 as Element>::NAME, <f32 as Element>::NAME]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_the_compiled_defaults() {
        let r = report();
        assert_eq!(report_names(), ["f64", "f32"]);
        assert_eq!(r[0], KernelParams::defaults::<f64>());
        assert_eq!(r[1], KernelParams::defaults::<f32>());
        let fields = |p: &KernelParams| (p.nc, p.kc, p.mc, p.par_madds, p.source);
        assert_eq!(fields(&r[0]), (2048, 256, 128, 262_144, "defaults"));
        assert_eq!(fields(&r[1]), (4096, 512, 128, 262_144, "defaults"));
    }
}
