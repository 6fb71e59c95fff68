//! Startup autotuning of the packed-kernel blocking parameters.
//!
//! The cache-blocking constants (`NC`/`KC`/`MC`) and the pool-dispatch crossover
//! (`parallel_degree`'s madd threshold) used to be hard-coded numbers tuned once on one
//! host. This module resolves them at first use, per **(host, element type)**:
//!
//! 1. `BSR_AUTOTUNE=0` (or `off`/`false`) short-circuits to the compiled defaults —
//!    bit-reproducible CI, no timing dependence;
//! 2. otherwise a cache file under `target/bsr-autotune/` (override the directory with
//!    `BSR_AUTOTUNE_DIR`) keyed by SIMD backend × core count × element type is
//!    consulted, so one process per host pays the probe;
//! 3. otherwise a short probe (~tens of ms in release builds) times the single-strip
//!    GEMM core over a small `KC × MC` grid — `NC` rides along, derived from `KC` by
//!    holding the packed `op(B)` buffer's byte budget constant — picks the fastest
//!    candidate, measures the rayon dispatch overhead to place the serial/parallel
//!    crossover, and — in optimized builds only — writes the cache file (temp +
//!    rename, so concurrent probers race benignly).
//!
//! Changing `KC` changes the inner-dimension summation grouping and therefore the
//! floating-point rounding of every GEMM, which is why CI's tier-1 lane pins
//! `BSR_AUTOTUNE=0`: results stay bit-identical across hosts there, while perf runs
//! get host-tuned blocking. The resolved parameters (and whether they came from
//! `defaults`, `cache`, or `probe`) are recorded in every regenerated `BENCH_*.json`.

use std::time::Instant;

use rayon::prelude::*;

use crate::blas3::Trans;
use crate::elem::Element;
use crate::kernel::{self, Operand};
use crate::matrix::Matrix;

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
    /// Provenance: `"defaults"` (compiled), `"cache"` (prior probe), or `"probe"`.
    pub source: &'static str,
}

impl KernelParams {
    /// The compiled-in defaults for `E` (what `BSR_AUTOTUNE=0` selects).
    pub fn defaults<E: Element>() -> Self {
        KernelParams {
            nc: E::DEFAULT_NC,
            kc: E::DEFAULT_KC,
            mc: E::DEFAULT_MC,
            par_madds: E::DEFAULT_PAR_MADDS,
            source: "defaults",
        }
    }

    /// Clamp/align a candidate so the packing invariants hold regardless of where the
    /// numbers came from (a stale or hand-edited cache file must not break packing).
    fn sanitized<E: Element>(mut self) -> Self {
        self.kc = self.kc.clamp(16, 1 << 14);
        self.mc = self.mc.clamp(E::MR, 1 << 14).next_multiple_of(E::MR);
        self.nc = self.nc.clamp(E::NR, 1 << 20).next_multiple_of(E::NR);
        self.par_madds = self.par_madds.clamp(1 << 10, 1 << 30);
        self
    }
}

/// The resolved parameters for `E`, computed once per process (defaults, cache hit, or
/// probe — see the module docs) and cached for the process lifetime.
pub fn params<E: Element>() -> &'static KernelParams {
    E::params_cell().get_or_init(resolve::<E>)
}

/// Resolved parameters for both supported element types, for bench-report emission.
/// Forces resolution of both.
pub fn report() -> Vec<KernelParams> {
    vec![params::<f64>().clone(), params::<f32>().clone()]
}

/// Element names matching [`report`]'s order.
pub fn report_names() -> [&'static str; 2] {
    [<f64 as Element>::NAME, <f32 as Element>::NAME]
}

fn autotune_disabled() -> bool {
    matches!(
        std::env::var("BSR_AUTOTUNE").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    )
}

fn resolve<E: Element>() -> KernelParams {
    if autotune_disabled() {
        return KernelParams::defaults::<E>();
    }
    resolve_in::<E>(&cache_dir())
}

/// The cache-or-probe half of [`resolve`], against the cache directory `dir`. Only
/// optimized builds write what they probed: an unoptimized build probes a smaller
/// problem whose ranking is junk ([`probe_n`]), and the cache key does not name the
/// build profile, so a release binary would load that ranking as `"cache"`.
fn resolve_in<E: Element>(dir: &std::path::Path) -> KernelParams {
    if let Some(cached) = read_cache::<E>(dir) {
        return cached;
    }
    let probed = probe::<E>();
    if !cfg!(debug_assertions) {
        write_cache::<E>(dir, &probed);
    }
    probed
}

// ------------------------------------------------------------------- cache file ----

/// Directory the per-host tuning results live in: `BSR_AUTOTUNE_DIR` if set, else
/// `target/bsr-autotune/` next to the workspace.
fn cache_dir() -> std::path::PathBuf {
    match std::env::var_os("BSR_AUTOTUNE_DIR") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
                .join("bsr-autotune")
        }
    }
}

/// Physical parallelism of the host (cache-key component; `parallel_degree` depends on
/// how many workers the dispatch fans out to).
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cache_path<E: Element>(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join(format!(
        "{}-{}-c{}.tune",
        E::NAME,
        crate::elem::simd_backend(),
        host_cores()
    ))
}

fn read_cache<E: Element>(dir: &std::path::Path) -> Option<KernelParams> {
    let text = std::fs::read_to_string(cache_path::<E>(dir)).ok()?;
    let mut p = KernelParams {
        nc: 0,
        kc: 0,
        mc: 0,
        par_madds: 0,
        source: "cache",
    };
    let mut version_ok = false;
    for line in text.lines() {
        let mut it = line.split_whitespace();
        let (Some(key), Some(value)) = (it.next(), it.next()) else {
            continue;
        };
        match key {
            "version" => version_ok = value == "1",
            "nc" => p.nc = value.parse().ok()?,
            "kc" => p.kc = value.parse().ok()?,
            "mc" => p.mc = value.parse().ok()?,
            "par_madds" => p.par_madds = value.parse().ok()?,
            _ => {}
        }
    }
    if !version_ok || p.nc == 0 || p.kc == 0 || p.mc == 0 || p.par_madds == 0 {
        return None;
    }
    Some(p.sanitized::<E>())
}

/// Best-effort cache write: temp file + rename so concurrent probers never observe a
/// torn file; any I/O failure just means the next process probes again.
fn write_cache<E: Element>(dir: &std::path::Path, p: &KernelParams) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let body = format!(
        "version 1\nelem {}\nbackend {}\ncores {}\nnc {}\nkc {}\nmc {}\npar_madds {}\n",
        E::NAME,
        crate::elem::simd_backend(),
        host_cores(),
        p.nc,
        p.kc,
        p.mc,
        p.par_madds
    );
    let tmp = dir.join(format!("{}.tmp.{}", E::NAME, std::process::id()));
    if std::fs::write(&tmp, body).is_ok() {
        let _ = std::fs::rename(&tmp, cache_path::<E>(dir));
    }
}

// ------------------------------------------------------------------------ probe ----

/// Probe matrix order: large enough that `MC`/`KC` blocking differences are visible,
/// small enough that the whole grid stays in the tens of milliseconds in release.
/// Unoptimized builds (debug test binaries) shrink it — their rankings are junk
/// anyway, and the result only steers performance, never correctness.
fn probe_n() -> usize {
    if cfg!(debug_assertions) {
        96
    } else {
        320
    }
}

/// `NC` derived from a `KC` candidate by holding the packed `op(B)` buffer's element
/// budget at the compiled default (`DEFAULT_KC × DEFAULT_NC`): halve `kc`, double `nc`.
fn nc_for<E: Element>(kc: usize) -> usize {
    ((E::DEFAULT_KC * E::DEFAULT_NC) / kc.max(1)).next_multiple_of(E::NR)
}

/// Time the single-strip packed GEMM core under explicit parameters. Never consults
/// [`params`] (re-entering the `OnceLock` from inside its initializer would deadlock);
/// runs strictly on the calling thread so pool scheduling noise stays out of the
/// measurement. Returns the best of `reps` timings.
fn time_gemm<E: Element>(
    p: &KernelParams,
    a: &Matrix<E>,
    b: &Matrix<E>,
    c: &mut Matrix<E>,
    reps: usize,
) -> f64 {
    let n = a.rows();
    let mut cols = c.columns_mut();
    let run = |cols: &mut [&mut [E]]| {
        kernel::gemm_strip_with(
            p,
            E::ONE,
            Operand::whole(a, Trans::No),
            Operand::whole(b, Trans::No),
            n,
            n,
            0,
            cols,
            false,
        );
    };
    run(&mut cols); // warm the packing scratch and instruction cache
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run(&mut cols);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn probe<E: Element>() -> KernelParams {
    let n = probe_n();
    // Deterministic, cheap pseudo-random fill; values in [-1, 1] so products stay tame.
    let fill = |i: usize, j: usize| {
        let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) & 0xFFFF;
        E::from_f64(h as f64 / 32768.0 - 1.0)
    };
    let a = Matrix::<E>::from_fn(n, n, fill);
    let b = Matrix::<E>::from_fn(n, n, |i, j| fill(j, i));
    let mut c = Matrix::<E>::zeros(n, n);

    let mut kcs = vec![E::DEFAULT_KC / 2, E::DEFAULT_KC, E::DEFAULT_KC * 2];
    for kc in &mut kcs {
        *kc = (*kc).min(n); // larger candidates are indistinguishable at the probe size
    }
    kcs.dedup();
    let mcs = [E::DEFAULT_MC / 2, E::DEFAULT_MC, E::DEFAULT_MC * 2];

    let mut best_time = f64::INFINITY;
    let mut best = KernelParams::defaults::<E>();
    for &kc in &kcs {
        for &mc in &mcs {
            let cand = KernelParams {
                nc: nc_for::<E>(kc),
                kc,
                mc,
                par_madds: E::DEFAULT_PAR_MADDS,
                source: "probe",
            }
            .sanitized::<E>();
            let t = time_gemm(&cand, &a, &b, &mut c, 2);
            if t < best_time {
                best_time = t;
                best = cand;
            }
        }
    }
    let madd_rate = (n * n * n) as f64 / best_time.max(1e-9);
    best.par_madds = probe_par_madds(madd_rate, E::DEFAULT_PAR_MADDS);
    best
}

/// Place the serial/parallel crossover: measure the cost of one fan-out across the
/// persistent pool, then pick the madd count whose serial kernel time is ~8× that
/// dispatch cost. Below the threshold a level-3 call stays on the calling thread.
fn probe_par_madds(madd_rate: f64, default: usize) -> usize {
    if rayon::current_num_threads() <= 1 {
        // Nothing ever fans out on a 1-worker pool; keep the compiled crossover so
        // the recorded value stays meaningful if RAYON_NUM_THREADS changes later.
        return default;
    }
    let threads = rayon::current_num_threads();
    let mut sink = vec![0u64; threads];
    sink.par_chunks_mut(1).for_each(|c| c[0] += 1); // warm the pool
    const REPS: u32 = 64;
    let t0 = Instant::now();
    for _ in 0..REPS {
        sink.par_chunks_mut(1).for_each(|c| c[0] += 1);
    }
    let dispatch = t0.elapsed().as_secs_f64() / f64::from(REPS);
    ((dispatch * madd_rate * 8.0) as usize).clamp(1 << 14, 1 << 22)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pass_their_own_sanitizer() {
        assert_eq!(
            KernelParams::defaults::<f64>().sanitized::<f64>(),
            KernelParams::defaults::<f64>()
        );
        assert_eq!(
            KernelParams::defaults::<f32>().sanitized::<f32>(),
            KernelParams::defaults::<f32>()
        );
    }

    #[test]
    fn sanitizer_repairs_degenerate_candidates() {
        let p = KernelParams {
            nc: 3,
            kc: 1,
            mc: 7,
            par_madds: 2,
            source: "cache",
        }
        .sanitized::<f32>();
        assert!(p.mc.is_multiple_of(<f32 as Element>::MR));
        assert!(p.nc.is_multiple_of(<f32 as Element>::NR));
        assert!(p.kc >= 16 && p.par_madds >= 1 << 10);
    }

    #[test]
    fn nc_tracks_constant_byte_budget() {
        let full = nc_for::<f64>(<f64 as Element>::DEFAULT_KC);
        let half = nc_for::<f64>(<f64 as Element>::DEFAULT_KC / 2);
        assert_eq!(full, <f64 as Element>::DEFAULT_NC);
        assert_eq!(half, 2 * <f64 as Element>::DEFAULT_NC);
    }

    #[test]
    fn resolved_params_are_sane_and_stable() {
        let p = params::<f64>();
        let q = params::<f64>();
        assert_eq!(p, q, "OnceLock must hand back the same resolution");
        assert!(p.mc.is_multiple_of(<f64 as Element>::MR));
        assert!(p.nc.is_multiple_of(<f64 as Element>::NR));
        assert!(["defaults", "cache", "probe"].contains(&p.source));
        let f = params::<f32>();
        assert!(f.mc.is_multiple_of(<f32 as Element>::MR));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn debug_builds_never_write_the_cache() {
        let dir = std::env::temp_dir().join(format!("bsr-tune-debug-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = resolve_in::<f64>(&dir);
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(p.source, "probe", "an empty cache directory must make resolve probe");
        assert!(left.is_empty(), "a debug build wrote its probe to the cache: {left:?}");
    }

    #[test]
    fn cache_roundtrip_preserves_values() {
        let dir = std::env::temp_dir().join(format!("bsr-tune-test-{}", std::process::id()));
        // Exercise the parser directly against a file we write by hand (the env-var
        // driven path cannot be toggled safely inside a threaded test binary).
        std::fs::create_dir_all(&dir).unwrap();
        let body = "version 1\nelem f64\nbackend scalar\ncores 1\nnc 4096\nkc 128\nmc 256\npar_madds 65536\n";
        let path = dir.join("hand.tune");
        std::fs::write(&path, body).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut nc = 0usize;
        for line in text.lines() {
            let mut it = line.split_whitespace();
            if it.next() == Some("nc") {
                nc = it.next().unwrap().parse().unwrap();
            }
        }
        assert_eq!(nc, 4096);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
