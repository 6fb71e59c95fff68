//! `facto_perf` — measured end-to-end GFLOP/s baseline of the blocked factorizations.
//!
//! Sweeps blocked Cholesky / LU / QR over a range of orders in two variants:
//!
//! * **slice** — the current library path: slice-based panel kernels riding `blas1`,
//!   blocked compact-WY trailing updates, vectorized block copies;
//! * **naive_panel** — the pre-slice-rewrite panel layer kept **verbatim** below
//!   (element-at-a-time `Matrix::get`/`set` panel factorizations, scalar block copies
//!   feeding the same packed level-3 kernels), so the speedup of the slice rewrite is
//!   recorded as an observed number, not assumed.
//!
//! A third set of runs repeats the slice variant with full ABFT checksum maintenance
//! (encode + verify of every trailing tile each iteration, the numeric-mode protection
//! pattern) and reports the checksum share of total time — the measured counterpart of
//! the paper's Table 2 checksum-cost ratios.
//!
//! A fourth section sweeps `RAYON_NUM_THREADS ∈ {1, 2, 4, host}` over the three
//! execution models of the full factorizations:
//!
//! * **forkjoin** — the synchronous drivers (panel → barrier → trailing update, the
//!   PR 3 paths), whose BLAS-3 regions fan out on the persistent pool;
//! * **tiled** — the stepped drivers (`LuTiledStepper` / `CholeskyTiledStepper` /
//!   `QrTiledStepper`): one task graph of per-tile-column trailing-update tasks per
//!   iteration, one-step panel lookahead, bit-identical results to forkjoin at every
//!   thread count;
//! * **dag** — the same graph run whole (`lu_dag` / `cholesky_dag` / `qr_dag`):
//!   per-tile dependency counters across iterations instead of one graph each, so
//!   lookahead depth is unbounded and iteration `k + 2`'s updates start while
//!   iteration `k`'s slow tiles are still in flight; results stay bit-identical to
//!   both other models.
//!
//! Each (facto, n, threads) cell is measured with the same paired interleaved A/B/C
//! design, plus ABFT-**fused** tiled and DAG runs (`FusedTileChecksums` hooks: every
//! trailing task encodes + verifies its own tiles on the parallel schedule) reporting
//! the CPU-summed checksum seconds. The sweep also measures the persistent pool's
//! region dispatch cost (`pool_dispatch_us`), the number behind `parallel_degree`'s
//! threshold in `bsr-linalg::blas3`.
//!
//! Measurement is a *paired interleaved* A/B design: in every timing round the two
//! variants run back-to-back, so slow host drift (frequency scaling, noisy neighbors)
//! cancels out of the slice-vs-naive comparison instead of biasing whichever variant a
//! grouped harness runs first. Reported throughput is the median over the rounds; the
//! per-variant minimum is recorded alongside.
//!
//! Results go to stdout and to `BENCH_facto.json` at the workspace root (alongside
//! `BENCH_kernels.json`). Environment:
//! * `FACTO_PERF_SMOKE=1` — tiny sizes + short measurement for CI smoke runs; writes to
//!   `target/BENCH_facto.smoke.json` so the recorded trajectory is not clobbered;
//! * `FACTO_PERF_OUT=<path>` — override the output path.
//!
//! Flop conventions (madd = 2 flops, square n × n input): Cholesky `n³/3`,
//! LU `2n³/3`, QR `4n³/3`.

use bsr_abft::checksum::{encode_block, verify_and_correct, ChecksumScheme};
use bsr_abft::fused::PerIterationChecksums;
use bsr_abft::FusedTileChecksums;
use bsr_linalg::dag::DagExecution;
use bsr_linalg::blas3::{
    gemm, gemm_into_block, simd_backend, syrk_lower_into_block, trsm_into_block, Diag, Side,
    Trans, UpLo,
};
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::task::TrailingHook;
use bsr_linalg::{cholesky, lu, qr, tune};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

// =======================================================================================
// The pre-rewrite panel layer, kept verbatim as the measured naive reference.
//
// Deliberately self-contained (like kernel_perf's naive_gemm_seed) and deliberately NOT
// shared with the similar reference implementations in
// crates/linalg/tests/proptest_panels.rs: this copy is the frozen *historical* code
// whose measured cost anchors the recorded speedup, while the proptest copy is a
// correctness oracle that may evolve with the library. One difference is already
// intentional: the pivot search below is the hand-inlined scan the seed's panel
// compiled to, not a call into today's blas1::iamax.
// =======================================================================================

/// Scalar block copy (the seed's `Matrix::copy_block` before slice vectorization).
fn naive_copy_block(m: &Matrix, block: Block) -> Matrix {
    let mut out = Matrix::zeros(block.rows, block.cols);
    for j in 0..block.cols {
        for i in 0..block.rows {
            out.set(i, j, m.get(block.row + i, block.col + j));
        }
    }
    out
}

/// Scalar Cholesky panel (`potf2` before the slice rewrite).
fn naive_potf2(a: &mut Matrix, j0: usize, nb: usize) {
    for j in j0..j0 + nb {
        let mut d = a.get(j, j);
        for k in j0..j {
            let v = a.get(j, k);
            d -= v * v;
        }
        assert!(d > 0.0, "naive potf2: not positive definite");
        let d = d.sqrt();
        a.set(j, j, d);
        for i in j + 1..j0 + nb {
            let mut s = a.get(i, j);
            for k in j0..j {
                s -= a.get(i, k) * a.get(j, k);
            }
            a.set(i, j, s / d);
        }
    }
}

/// Scalar LU panel with partial pivoting (element-at-a-time swaps, scaling and rank-1).
fn naive_lu_panel(a: &mut Matrix, j0: usize, nb: usize, pivots: &mut Vec<usize>) {
    let n = a.rows();
    for j in j0..j0 + nb {
        let mut piv = j;
        let mut best = -1.0_f64;
        for i in j..n {
            let v = a.get(i, j).abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        assert!(a.get(piv, j) != 0.0, "naive LU panel: singular pivot");
        pivots.push(piv);
        if piv != j {
            for c in 0..a.cols() {
                let x = a.get(j, c);
                let y = a.get(piv, c);
                a.set(j, c, y);
                a.set(piv, c, x);
            }
        }
        let d = a.get(j, j);
        for i in j + 1..n {
            let v = a.get(i, j) / d;
            a.set(i, j, v);
        }
        for c in j + 1..j0 + nb {
            let ujc = a.get(j, c);
            if ujc == 0.0 {
                continue;
            }
            for i in j + 1..n {
                let lij = a.get(i, j);
                a.add_assign(i, c, -lij * ujc);
            }
        }
    }
}

/// Scalar Householder QR panel (gather/scatter reflector, per-column scalar apply).
fn naive_qr_panel(a: &mut Matrix, j0: usize, nb: usize, taus: &mut Vec<f64>) {
    let m = a.rows();
    for jj in 0..nb {
        let j = j0 + jj;
        let mut x: Vec<f64> = (j..m).map(|i| a.get(i, j)).collect();
        let alpha = x[0];
        let xnorm = x[1..].iter().map(|v| v * v).sum::<f64>().sqrt();
        let tau = if xnorm == 0.0 {
            0.0
        } else {
            let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
            let scale = 1.0 / (alpha - beta);
            for v in x[1..].iter_mut() {
                *v *= scale;
            }
            x[0] = beta;
            (beta - alpha) / beta
        };
        a.set(j, j, x[0]);
        for (off, &v) in x.iter().enumerate().skip(1) {
            a.set(j + off, j, v);
        }
        taus.push(tau);
        if tau == 0.0 {
            continue;
        }
        for c in j + 1..j0 + nb {
            let mut w = a.get(j, c);
            for i in j + 1..m {
                w += a.get(i, j) * a.get(i, c);
            }
            let w = tau * w;
            a.add_assign(j, c, -w);
            for i in j + 1..m {
                let vij = a.get(i, j);
                a.add_assign(i, c, -w * vij);
            }
        }
    }
}

/// Scalar compact-WY `T` factor (pre-rewrite `form_t`).
fn naive_form_t(a: &Matrix, j0: usize, nb: usize, taus: &[f64]) -> Matrix {
    let m = a.rows();
    let mut t = Matrix::zeros(nb, nb);
    for i in 0..nb {
        let tau = taus[j0 + i];
        t.set(i, i, tau);
        if i == 0 || tau == 0.0 {
            continue;
        }
        let mut w = vec![0.0; i];
        for (k, wk) in w.iter_mut().enumerate() {
            let mut acc = a.get(j0 + i, j0 + k);
            for r in j0 + i + 1..m {
                acc += a.get(r, j0 + k) * a.get(r, j0 + i);
            }
            *wk = -tau * acc;
        }
        for r in 0..i {
            let mut acc = 0.0;
            for (k, &wk) in w.iter().enumerate().take(i).skip(r) {
                acc += t.get(r, k) * wk;
            }
            t.set(r, i, acc);
        }
    }
    t
}

/// Pre-rewrite block reflector application: scalar `V` extraction and scalar `C` copy
/// feeding the same packed GEMMs.
fn naive_apply_block_reflector(
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
    let mut v = Matrix::zeros(m - j0, nb);
    for k in 0..nb {
        v.set(k, k, 1.0);
        for r in j0 + k + 1..m {
            v.set(r - j0, k, a.get(r, j0 + k));
        }
    }
    let c_block = Block::new(j0, col_start, m - j0, col_end - col_start);
    let c = naive_copy_block(a, c_block);
    let w = gemm(&v, Trans::Yes, &c, Trans::No);
    let w = gemm(t, Trans::Yes, &w, Trans::No);
    gemm_into_block(-1.0, &v, Trans::No, &w, Trans::No, 1.0, a, c_block);
}

// ---- naive full drivers (pre-rewrite panels + scalar copies, same BLAS-3 core) --------

fn naive_cholesky(a: &mut Matrix, block: usize) {
    let n = a.rows();
    let mut j0 = 0;
    while j0 < n {
        let nb = block.min(n - j0);
        naive_potf2(a, j0, nb);
        if j0 + nb < n {
            let l11 = naive_copy_block(a, Block::new(j0, j0, nb, nb)).lower_triangular();
            trsm_into_block(
                Side::Right, UpLo::Lower, Trans::Yes, Diag::NonUnit,
                1.0, &l11, a, Block::new(j0 + nb, j0, n - j0 - nb, nb),
            );
            let a21 = naive_copy_block(a, Block::new(j0 + nb, j0, n - j0 - nb, nb));
            syrk_lower_into_block(
                -1.0, &a21, 1.0, a,
                Block::new(j0 + nb, j0 + nb, n - j0 - nb, n - j0 - nb),
            );
        }
        j0 += nb;
    }
}

fn naive_lu(a: &mut Matrix, block: usize) {
    let n = a.rows();
    let mut pivots = Vec::with_capacity(n);
    let mut j0 = 0;
    while j0 < n {
        let nb = block.min(n - j0);
        naive_lu_panel(a, j0, nb, &mut pivots);
        if j0 + nb < n {
            let l11 =
                naive_copy_block(a, Block::new(j0, j0, nb, nb)).unit_lower_triangular();
            trsm_into_block(
                Side::Left, UpLo::Lower, Trans::No, Diag::Unit,
                1.0, &l11, a, Block::new(j0, j0 + nb, nb, n - j0 - nb),
            );
            let l21 = naive_copy_block(a, Block::new(j0 + nb, j0, n - j0 - nb, nb));
            let u12 = naive_copy_block(a, Block::new(j0, j0 + nb, nb, n - j0 - nb));
            gemm_into_block(
                -1.0, &l21, Trans::No, &u12, Trans::No, 1.0, a,
                Block::new(j0 + nb, j0 + nb, n - j0 - nb, n - j0 - nb),
            );
        }
        j0 += nb;
    }
}

fn naive_qr(a: &mut Matrix, block: usize) {
    let n = a.cols();
    let m = a.rows();
    let kmax = n.min(m);
    let mut taus = Vec::with_capacity(kmax);
    let mut j0 = 0;
    while j0 < kmax {
        let nb = block.min(kmax - j0);
        naive_qr_panel(a, j0, nb, &mut taus);
        if j0 + nb < n {
            let t = naive_form_t(a, j0, nb, &taus);
            naive_apply_block_reflector(a, j0, nb, &t, j0 + nb, n);
        }
        j0 += nb;
    }
}

// =======================================================================================
// Harness
// =======================================================================================

const FACTOS: [&str; 3] = ["cholesky", "lu", "qr"];

fn flops(facto: &str, n: usize) -> f64 {
    let n = n as f64;
    match facto {
        "cholesky" => n * n * n / 3.0,
        "lu" => 2.0 * n * n * n / 3.0,
        "qr" => 4.0 * n * n * n / 3.0,
        other => unreachable!("unknown facto {other}"),
    }
}

fn make_input(facto: &str, n: usize) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    match facto {
        "cholesky" => random_spd_matrix(&mut rng, n),
        _ => random_matrix(&mut rng, n, n),
    }
}

fn run_variant(facto: &str, variant: &str, input: &Matrix, work: &mut Matrix, block: usize) {
    work.clone_from(input);
    match (facto, variant) {
        ("cholesky", "slice") => cholesky::cholesky_blocked(work, block).unwrap(),
        ("cholesky", "naive_panel") => naive_cholesky(work, block),
        ("lu", "slice") => {
            // In-place driver loop (mirrors lu_blocked without the result packaging).
            let n = work.rows();
            let mut pivots = Vec::with_capacity(n);
            let mut j0 = 0;
            while j0 < n {
                let nb = block.min(n - j0);
                lu::panel_factor(work, j0, nb, &mut pivots).unwrap();
                lu::panel_update(work, j0, nb);
                lu::trailing_update(work, j0, nb);
                j0 += nb;
            }
        }
        ("lu", "naive_panel") => naive_lu(work, block),
        ("qr", "slice") => {
            let n = work.cols();
            let kmax = n.min(work.rows());
            let mut taus = Vec::with_capacity(kmax);
            let mut j0 = 0;
            while j0 < kmax {
                let nb = block.min(kmax - j0);
                qr::panel_factor(work, j0, nb, &mut taus);
                if j0 + nb < n {
                    let t = qr::form_t(work, j0, nb, &taus);
                    qr::apply_block_reflector(work, j0, nb, &t, j0 + nb, n);
                }
                j0 += nb;
            }
        }
        ("qr", "naive_panel") => naive_qr(work, block),
        other => unreachable!("unknown configuration {other:?}"),
    }
}

/// One measured configuration and its throughput.
struct Row {
    facto: &'static str,
    n: usize,
    variant: &'static str,
    median_s: f64,
    min_s: f64,
    samples: usize,
    gflops: f64,
}

/// One ABFT-instrumented run: total / checksum-portion seconds.
struct AbftRow {
    facto: &'static str,
    n: usize,
    total_s: f64,
    checksum_s: f64,
    checksum_fraction: f64,
    gflops: f64,
}

/// Slice-variant factorization with full checksum maintenance: after each iteration's
/// updates the trailing matrix tiles are (re)encoded and verified under the `Full`
/// scheme — the numeric-mode protection pattern. Checksum time is accumulated
/// separately so the overhead is reported as a fraction of total time.
fn run_with_abft(facto: &str, input: &Matrix, block: usize) -> (f64, f64) {
    let n = input.rows();
    let mut a = input.clone();
    let mut checksum_s = 0.0;
    let start = Instant::now();
    let mut pivots = Vec::with_capacity(n);
    let mut taus = Vec::with_capacity(n);
    let mut j0 = 0;
    while j0 < n {
        let nb = block.min(n - j0);
        match facto {
            "cholesky" => {
                cholesky::potf2(&mut a, j0, nb).unwrap();
                cholesky::panel_update(&mut a, j0, nb);
                cholesky::trailing_update(&mut a, j0, nb);
            }
            "lu" => {
                lu::panel_factor(&mut a, j0, nb, &mut pivots).unwrap();
                lu::panel_update(&mut a, j0, nb);
                lu::trailing_update(&mut a, j0, nb);
            }
            "qr" => {
                qr::panel_factor(&mut a, j0, nb, &mut taus);
                if j0 + nb < n {
                    let t = qr::form_t(&a, j0, nb, &taus);
                    qr::apply_block_reflector(&mut a, j0, nb, &t, j0 + nb, n);
                }
            }
            other => unreachable!("unknown facto {other}"),
        }
        // Checksum maintenance over the trailing matrix, tiled at the block size.
        let start_trailing = j0 + nb;
        if start_trailing < n {
            let cs_t0 = Instant::now();
            let mut r = start_trailing;
            while r < n {
                let rows = block.min(n - r);
                let mut c = start_trailing;
                while c < n {
                    let cols = block.min(n - c);
                    let tile = Block::new(r, c, rows, cols);
                    let cs = encode_block(&a, tile, ChecksumScheme::Full);
                    let out = verify_and_correct(&mut a, &cs);
                    assert!(out.is_clean_or_corrected());
                    c += cols;
                }
                r += rows;
            }
            checksum_s += cs_t0.elapsed().as_secs_f64();
        }
        j0 += nb;
    }
    (start.elapsed().as_secs_f64(), checksum_s)
}

// =======================================================================================
// Lookahead thread sweep (forkjoin vs tiled) and ABFT-fused runs.
// =======================================================================================

use rayon::ThreadCountGuard;

/// The execution models the lookahead sweep compares, slowest-coupling first.
const LOOKAHEAD_VARIANTS: [&str; 3] = ["forkjoin", "tiled", "dag"];

/// One execution-model run: `forkjoin` is the synchronous PR 3 driver, `tiled` the
/// stepped driver (one task graph per iteration, one-step lookahead), `dag` the same
/// graph run whole with depth-unbounded lookahead. All include the input copy, so the
/// comparison is end-to-end.
fn run_lookahead(facto: &str, variant: &str, input: &Matrix, work: &mut Matrix, block: usize) {
    match (facto, variant) {
        (_, "tiled") => run_stepped(facto, input, block, &()),
        ("cholesky", "dag") => {
            work.clone_from(input);
            cholesky::cholesky_dag(work, block).unwrap();
        }
        ("lu", "dag") => {
            std::hint::black_box(lu::lu_dag(input, block).unwrap());
        }
        ("qr", "dag") => {
            std::hint::black_box(qr::qr_dag(input, block));
        }
        (_, "forkjoin") => run_variant(facto, "slice", input, work, block),
        other => unreachable!("unknown configuration {other:?}"),
    }
}

/// The stepped drivers (`LuTiledStepper` and friends): the prologue, then one task
/// graph per iteration with `hook` fused into every trailing task.
fn run_stepped(facto: &str, input: &Matrix, block: usize, hook: &dyn TrailingHook) {
    match facto {
        "cholesky" => {
            let mut s = cholesky::CholeskyTiledStepper::new(input.clone(), block).unwrap();
            for k in 0..s.iterations() {
                s.step(k, hook).unwrap();
            }
            std::hint::black_box(s.into_matrix());
        }
        "lu" => {
            let mut s = lu::LuTiledStepper::new(input, block).unwrap();
            for k in 0..s.iterations() {
                s.step(k, hook).unwrap();
            }
            std::hint::black_box(s.into_factors());
        }
        "qr" => {
            let mut s = qr::QrTiledStepper::new(input, block);
            for k in 0..s.iterations() {
                s.step(k, hook);
            }
            std::hint::black_box(s.into_factors());
        }
        other => unreachable!("unknown facto {other}"),
    }
}

/// One (facto, n, threads, variant) sweep measurement.
struct SweepRow {
    facto: &'static str,
    n: usize,
    threads: usize,
    variant: &'static str,
    median_s: f64,
    min_s: f64,
    samples: usize,
    gflops: f64,
}

/// One ABFT-fused run (tiled stepper or DAG runtime): wall time plus CPU-summed
/// checksum seconds (equal to the wall-clock checksum share on one thread; an upper
/// bound on it when tasks overlap).
struct FusedRow {
    facto: &'static str,
    n: usize,
    threads: usize,
    runtime: &'static str,
    total_s: f64,
    checksum_cpu_s: f64,
    checksum_fraction: f64,
    gflops: f64,
}

/// Stepped factorization with `FusedTileChecksums` riding every trailing task.
fn run_fused(facto: &str, input: &Matrix, block: usize) -> (f64, f64) {
    let hook = FusedTileChecksums::new(ChecksumScheme::Full, block);
    let start = Instant::now();
    run_stepped(facto, input, block, &hook);
    let total = start.elapsed().as_secs_f64();
    assert!(hook.outcome().is_clean_or_corrected());
    (total, hook.checksum_seconds())
}

/// DAG factorization with one `FusedTileChecksums` per iteration riding the
/// dependency-driven schedule through the [`PerIterationChecksums`] multiplexer.
fn run_fused_dag(facto: &str, input: &Matrix, block: usize) -> (f64, f64) {
    let iterations = input.rows().div_ceil(block);
    let hooks = (0..iterations)
        .map(|_| FusedTileChecksums::new(ChecksumScheme::Full, block))
        .collect();
    let hook = PerIterationChecksums::new(hooks);
    let start = Instant::now();
    match facto {
        "cholesky" => {
            let mut a = input.clone();
            cholesky::cholesky_dag_with(&mut a, block, &hook, DagExecution::Pool).unwrap();
        }
        "lu" => {
            std::hint::black_box(
                lu::lu_dag_with(input, block, &hook, DagExecution::Pool).unwrap(),
            );
        }
        "qr" => {
            std::hint::black_box(qr::qr_dag_with(input, block, &hook, DagExecution::Pool));
        }
        other => unreachable!("unknown facto {other}"),
    }
    let total = start.elapsed().as_secs_f64();
    assert!(hook.outcome().is_clean_or_corrected());
    let checksum_cpu_s: f64 =
        (0..iterations).map(|k| hook.hook(k).checksum_seconds()).sum();
    (total, checksum_cpu_s)
}

/// Median time (µs) of entering + leaving a 4-task parallel region on the persistent
/// pool — the dispatch cost `parallel_degree` amortizes.
fn measure_pool_dispatch_us() -> f64 {
    let _guard = ThreadCountGuard::set(4);
    // Warm the pool (worker spawn happens once, on the first region).
    rayon::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {});
        }
    });
    let mut samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..16 {
                rayon::scope(|s| {
                    for _ in 0..4 {
                        s.spawn(|| {
                            std::hint::black_box(0u64);
                        });
                    }
                });
            }
            t.elapsed().as_secs_f64() / 16.0 * 1e6
        })
        .collect();
    median(&mut samples)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// Median of a sample vector (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let smoke = std::env::var("FACTO_PERF_SMOKE").is_ok();
    let sizes: &[usize] = if smoke { &[64] } else { &[256, 512, 1024] };
    // The paper's hybrid runs use large blocks (512 at n = 30720); 128 keeps the same
    // panel-to-trailing ratio ballpark at these orders and gives the panel layer a
    // realistic share of the iteration.
    let block = if smoke { 16 } else { 128 };
    let host_cores = rayon::current_num_threads();
    // `current_num_threads` honors RAYON_NUM_THREADS, which CI sets above the
    // physical core count on small runners; the parity assertions below must key
    // off real hardware parallelism or an oversubscribed 1-core host trips them
    // on pure scheduling noise.
    let physical_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Paired interleaved A/B measurement: within every round the two variants run
    // back-to-back (slice first, then naive), so slow drift of the host (frequency,
    // neighbors) cancels out of the comparison instead of biasing whichever variant a
    // grouped harness happened to run first.
    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        for facto in FACTOS {
            let input = make_input(facto, n);
            let mut work = Matrix::zeros(n, n);
            // Warm-up (pages, caches, branch predictors) + round-count calibration.
            let wu = Instant::now();
            run_variant(facto, "slice", &input, &mut work, block);
            run_variant(facto, "naive_panel", &input, &mut work, block);
            let pair_s = wu.elapsed().as_secs_f64();
            let rounds = if smoke {
                3
            } else {
                // Aim for ~2 s per (facto, n) pair, 9..=41 rounds, odd for a clean median.
                ((2.0 / pair_s) as usize).clamp(9, 41) | 1
            };
            let mut slice_samples = Vec::with_capacity(rounds);
            let mut naive_samples = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let t = Instant::now();
                run_variant(facto, "slice", &input, &mut work, block);
                slice_samples.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                run_variant(facto, "naive_panel", &input, &mut work, block);
                naive_samples.push(t.elapsed().as_secs_f64());
            }
            for (variant, samples) in
                [("slice", &mut slice_samples), ("naive_panel", &mut naive_samples)]
            {
                let med = median(samples);
                let min_s = samples.iter().copied().fold(f64::INFINITY, f64::min);
                rows.push(Row {
                    facto,
                    n,
                    variant,
                    median_s: med,
                    min_s,
                    samples: rounds,
                    gflops: flops(facto, n) / med / 1e9,
                });
            }
        }
    }

    // ABFT-instrumented runs (slice variant, Full scheme), median of a few repetitions.
    let reps = if smoke { 1 } else { 3 };
    let mut abft_rows: Vec<AbftRow> = Vec::new();
    for &n in sizes {
        for facto in FACTOS {
            let input = make_input(facto, n);
            let mut samples: Vec<(f64, f64)> = (0..reps)
                .map(|_| run_with_abft(facto, &input, block))
                .collect();
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (total_s, checksum_s) = samples[samples.len() / 2];
            abft_rows.push(AbftRow {
                facto,
                n,
                total_s,
                checksum_s,
                checksum_fraction: checksum_s / total_s,
                gflops: flops(facto, n) / total_s / 1e9,
            });
        }
    }

    // ---- lookahead thread sweep (forkjoin vs tiled) -----------------------------------
    let mut sweep_threads: Vec<usize> = vec![1, 2, 4];
    if !sweep_threads.contains(&host_cores) {
        sweep_threads.push(host_cores);
    }
    let pool_dispatch_us = measure_pool_dispatch_us();
    let mut sweep_rows: Vec<SweepRow> = Vec::new();
    for &n in sizes {
        for facto in FACTOS {
            let input = make_input(facto, n);
            let mut work = Matrix::zeros(n, n);
            for &threads in &sweep_threads {
                let _guard = ThreadCountGuard::set(threads);
                // Warm-up triple + round calibration, as in the slice/naive section.
                let wu = Instant::now();
                for variant in LOOKAHEAD_VARIANTS {
                    run_lookahead(facto, variant, &input, &mut work, block);
                }
                let triple_s = wu.elapsed().as_secs_f64();
                let rounds = if smoke {
                    3
                } else {
                    // ~2.4 s per sweep cell with at least 15 rounds, odd for a clean
                    // median — enough that the paired execution-model ratios settle
                    // well inside the host's noise band even at the largest sizes.
                    ((2.4 / triple_s) as usize).clamp(15, 41) | 1
                };
                let mut samples: [Vec<f64>; 3] =
                    std::array::from_fn(|_| Vec::with_capacity(rounds));
                for _ in 0..rounds {
                    // Paired interleaved: all three models run back-to-back every
                    // round so host drift cancels out of their ratios.
                    for (variant, out) in LOOKAHEAD_VARIANTS.iter().copied().zip(samples.iter_mut()) {
                        let t = Instant::now();
                        run_lookahead(facto, variant, &input, &mut work, block);
                        out.push(t.elapsed().as_secs_f64());
                    }
                }
                for (variant, samples) in LOOKAHEAD_VARIANTS.iter().copied().zip(samples.iter_mut()) {
                    let med = median(samples);
                    let min_s = samples.iter().copied().fold(f64::INFINITY, f64::min);
                    sweep_rows.push(SweepRow {
                        facto,
                        n,
                        threads,
                        variant,
                        median_s: med,
                        min_s,
                        samples: rounds,
                        gflops: flops(facto, n) / med / 1e9,
                    });
                }
            }
        }
    }

    // ---- ABFT-fused tiled runs (checksums riding the task schedule) -------------------
    let mut fused_rows: Vec<FusedRow> = Vec::new();
    for &n in sizes {
        for facto in FACTOS {
            let input = make_input(facto, n);
            for &threads in &sweep_threads {
                let _guard = ThreadCountGuard::set(threads);
                for (runtime, run) in [
                    ("tiled", run_fused as fn(&str, &Matrix, usize) -> (f64, f64)),
                    ("dag", run_fused_dag),
                ] {
                    let mut samples: Vec<(f64, f64)> =
                        (0..reps).map(|_| run(facto, &input, block)).collect();
                    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let (total_s, checksum_cpu_s) = samples[samples.len() / 2];
                    fused_rows.push(FusedRow {
                        facto,
                        n,
                        threads,
                        runtime,
                        total_s,
                        checksum_cpu_s,
                        checksum_fraction: checksum_cpu_s / total_s,
                        gflops: flops(facto, n) / total_s / 1e9,
                    });
                }
            }
        }
    }

    // ---- summary ----------------------------------------------------------------------
    println!("\nfacto_perf summary (block = {block}):");
    println!("  simd backend:  {}", simd_backend());
    println!("  host cores:    {host_cores}");
    println!("  pool dispatch: {pool_dispatch_us:.2} us per 4-task region");
    for &n in sizes {
        for facto in FACTOS {
            let find = |variant: &str| {
                rows.iter()
                    .find(|r| r.facto == facto && r.n == n && r.variant == variant)
            };
            if let (Some(s), Some(nv)) = (find("slice"), find("naive_panel")) {
                let abft = abft_rows.iter().find(|r| r.facto == facto && r.n == n);
                println!(
                    "  {facto:>8} n={n:<5} slice {:7.2} GFLOP/s | naive_panel {:7.2} GFLOP/s | {:.2}x{}",
                    s.gflops,
                    nv.gflops,
                    s.gflops / nv.gflops,
                    abft.map(|a| format!(" | abft overhead {:.1}%", 100.0 * a.checksum_fraction))
                        .unwrap_or_default(),
                );
            }
        }
    }

    println!("  lookahead sweep (tiled and dag vs forkjoin GFLOP/s ratio):");
    for &n in sizes {
        for facto in FACTOS {
            let mut parts = Vec::new();
            for &t in &sweep_threads {
                let find = |variant: &str| {
                    sweep_rows.iter().find(|r| {
                        r.facto == facto && r.n == n && r.threads == t && r.variant == variant
                    })
                };
                if let (Some(fj), Some(td), Some(dg)) =
                    (find("forkjoin"), find("tiled"), find("dag"))
                {
                    parts.push(format!(
                        "t{t} tiled {:.2}x dag {:.2}x",
                        td.gflops / fj.gflops,
                        dg.gflops / fj.gflops
                    ));
                }
            }
            let fused = fused_rows
                .iter()
                .find(|r| r.facto == facto && r.n == n && r.threads == 1 && r.runtime == "tiled")
                .map(|r| format!(" | fused abft {:.1}%", 100.0 * r.checksum_fraction))
                .unwrap_or_default();
            println!("  {facto:>8} n={n:<5} {}{fused}", parts.join(" | "));
        }
    }

    // ---- paired-ratio sanity assertions ------------------------------------------------
    // Only meaningful when the host actually has parallelism: single-core CI smoke
    // hosts run every model sequentially (whatever RAYON_NUM_THREADS says), so their
    // A/B ratios are pure noise and the run only checks completion. A skipped
    // assertion is never silent: each one is recorded in the JSON `assertions`
    // array either as checked (with the measured value) or with an explicit
    // `"gated"` marker naming the reason, so a trajectory file from a 1-core host
    // is distinguishable from one where the ratios actually held.
    let max_n = *sizes.last().unwrap();
    let ratio = |facto: &str, n: usize, t: usize, a: &str, b: &str| -> Option<f64> {
        let find = |variant: &str| {
            sweep_rows.iter().find(|r| {
                r.facto == facto && r.n == n && r.threads == t && r.variant == variant
            })
        };
        Some(find(a)?.gflops / find(b)?.gflops)
    };
    let mut assertion_rows: Vec<String> = Vec::new();
    let core_gate = (physical_cores == 1).then_some("host_cores==1");
    for facto in FACTOS {
        // Single-thread parity: with no parallelism to exploit, neither task
        // runtime may cost more than a generous noise band over forkjoin.
        for variant in ["tiled", "dag"] {
            let name = format!("{facto}_n{max_n}_{variant}_t1_parity");
            if let Some(gate) = core_gate {
                assertion_rows
                    .push(format!("    {{\"name\":\"{name}\",\"gated\":\"{gate}\"}}"));
            } else if let Some(r) = ratio(facto, max_n, 1, variant, "forkjoin") {
                assert!(
                    r > 0.75,
                    "{facto} n={max_n}: {variant} single-thread ratio {r:.2}x \
                     is below parity band"
                );
                assertion_rows.push(format!(
                    "    {{\"name\":\"{name}\",\"status\":\"passed\",\"value\":{r:.3},\
                     \"floor\":0.75}}"
                ));
            }
        }
    }
    {
        // Depth-unbounded lookahead must beat the barrier-stepped models for at
        // least one factorization at the largest size with 4 workers.
        let name = format!("dag_t4_best_vs_forkjoin_n{max_n}");
        if let Some(gate) = core_gate {
            assertion_rows.push(format!("    {{\"name\":\"{name}\",\"gated\":\"{gate}\"}}"));
        } else if smoke {
            assertion_rows
                .push(format!("    {{\"name\":\"{name}\",\"gated\":\"smoke_mode\"}}"));
        } else {
            let best = FACTOS
                .iter()
                .filter_map(|f| ratio(f, max_n, 4, "dag", "forkjoin"))
                .fold(f64::NAN, f64::max);
            assert!(
                best > 1.18,
                "DAG t4 best speedup over forkjoin at n={max_n} is {best:.2}x (need > 1.18x)"
            );
            assertion_rows.push(format!(
                "    {{\"name\":\"{name}\",\"status\":\"passed\",\"value\":{best:.3},\
                 \"floor\":1.18}}"
            ));
        }
    }

    // ---- JSON emission ----------------------------------------------------------------
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let default_out = if smoke {
        root.join("target/BENCH_facto.smoke.json")
    } else {
        root.join("BENCH_facto.json")
    };
    let out = std::env::var("FACTO_PERF_OUT")
        .unwrap_or_else(|_| default_out.to_string_lossy().into_owned());

    // All interpolated strings are code-controlled identifiers, so no escaping is needed.
    let result_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"facto\":\"{}\",\"n\":{},\"variant\":\"{}\",\"median_s\":{:.6e},\"min_s\":{:.6e},\"samples\":{},\"gflops\":{:.3}}}",
                r.facto, r.n, r.variant, r.median_s, r.min_s, r.samples, r.gflops
            )
        })
        .collect();
    let abft_json_rows: Vec<String> = abft_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"facto\":\"{}\",\"n\":{},\"scheme\":\"full\",\"total_s\":{:.6e},\"checksum_s\":{:.6e},\"checksum_fraction\":{:.4},\"gflops\":{:.3}}}",
                r.facto, r.n, r.total_s, r.checksum_s, r.checksum_fraction, r.gflops
            )
        })
        .collect();
    let sweep_json_rows: Vec<String> = sweep_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"facto\":\"{}\",\"n\":{},\"threads\":{},\"variant\":\"{}\",\"median_s\":{:.6e},\"min_s\":{:.6e},\"samples\":{},\"gflops\":{:.3}}}",
                r.facto, r.n, r.threads, r.variant, r.median_s, r.min_s, r.samples, r.gflops
            )
        })
        .collect();
    let fused_json_rows: Vec<String> = fused_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"facto\":\"{}\",\"n\":{},\"threads\":{},\"runtime\":\"{}\",\"scheme\":\"full\",\"total_s\":{:.6e},\"checksum_cpu_s\":{:.6e},\"checksum_fraction\":{:.4},\"gflops\":{:.3}}}",
                r.facto, r.n, r.threads, r.runtime, r.total_s, r.checksum_cpu_s,
                r.checksum_fraction, r.gflops
            )
        })
        .collect();
    let mut speedups: Vec<String> = Vec::new();
    for facto in FACTOS {
        for &n in sizes {
            let find = |variant: &str| {
                rows.iter()
                    .find(|r| r.facto == facto && r.n == n && r.variant == variant)
            };
            let ratio = match (find("slice"), find("naive_panel")) {
                (Some(s), Some(nv)) => s.gflops / nv.gflops,
                _ => f64::NAN,
            };
            speedups.push(format!(
                "    \"{facto}_n{n}_slice_vs_naive_panel\": {}",
                json_num(ratio)
            ));
        }
    }
    for facto in FACTOS {
        for &n in sizes {
            for &t in &sweep_threads {
                let find = |variant: &str| {
                    sweep_rows.iter().find(|r| {
                        r.facto == facto && r.n == n && r.threads == t && r.variant == variant
                    })
                };
                let pair = |a: &str, b: &str| match (find(a), find(b)) {
                    (Some(x), Some(y)) => x.gflops / y.gflops,
                    _ => f64::NAN,
                };
                speedups.push(format!(
                    "    \"{facto}_n{n}_t{t}_tiled_vs_forkjoin\": {}",
                    json_num(pair("tiled", "forkjoin"))
                ));
                speedups.push(format!(
                    "    \"{facto}_n{n}_t{t}_dag_vs_forkjoin\": {}",
                    json_num(pair("dag", "forkjoin"))
                ));
                speedups.push(format!(
                    "    \"{facto}_n{n}_t{t}_dag_vs_tiled\": {}",
                    json_num(pair("dag", "tiled"))
                ));
            }
        }
    }
    let sweep_list = sweep_threads
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let par_threshold_madds = tune::params::<f64>().par_madds;
    let json = format!(
        "{{\n  \"bench\": \"facto_perf\",\n  \"mode\": \"{}\",\n  \"host_cores\": {host_cores},\n  \"threads_available\": {host_cores},\n  \"thread_sweep\": [{sweep_list}],\n  \"simd_backend\": \"{}\",\n  \"block\": {block},\n  \"max_n\": {max_n},\n  \"pool_dispatch_us\": {pool_dispatch_us:.2},\n  \"par_threshold_madds\": {par_threshold_madds},\n{},\n  \"results\": [\n{}\n  ],\n  \"abft\": [\n{}\n  ],\n  \"lookahead\": [\n{}\n  ],\n  \"abft_fused\": [\n{}\n  ],\n  \"assertions\": [\n{}\n  ],\n  \"derived\": {{\n{}\n  }}\n}}\n",
        if smoke { "smoke" } else { "full" },
        simd_backend(),
        bsr_bench::autotune_json(),
        result_rows.join(",\n"),
        abft_json_rows.join(",\n"),
        sweep_json_rows.join(",\n"),
        fused_json_rows.join(",\n"),
        assertion_rows.join(",\n"),
        speedups.join(",\n")
    );
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("facto_perf: failed to write {out}: {e}"),
    }
}
