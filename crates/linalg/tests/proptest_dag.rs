//! Schedule-fuzzing determinism suite for the dependency-driven DAG runtime.
//!
//! The DAG drivers (`lu_dag` / `cholesky_dag` / `qr_dag`) run each factorization's
//! task graph whole, with per-tile dependency counters and depth-unbounded
//! lookahead, so the *completion order* of tasks is entirely up to the scheduler.
//! This suite pins two invariants over random shapes, block sizes and tail panels:
//!
//! 1. **Bit-exactness under adversarial schedules.** Every run — pool execution at
//!    `RAYON_NUM_THREADS ∈ {1, 2, 3, 4, 8}` *and* the deterministic replay executor
//!    driving ≥ 64 seeded adversarial completion orders per factorization — must
//!    produce factors, pivots and taus bit-identical to the serial blocked drivers.
//!    The drivers are generic over the element type, so the LU and Cholesky
//!    properties sweep it too: the same schedules at `f32` must be bit-identical to
//!    each other (no serial f32 oracle exists) and reconstruct `P·A` / `A` to f32
//!    accuracy.
//! 2. **Exactly-once execution.** After every run the runtime's own accounting must
//!    show `executed == tasks`: no dependency-counter underflow (the runtime panics
//!    on a negative counter) and no leaked task that never became ready.
//!
//! A 60-second deadlock watchdog wraps every DAG run: a scheduling bug that strands
//! a task with a positive counter would otherwise hang the suite silently. On
//! timeout the watchdog dumps the runtime's ready-queue/counter snapshot
//! ([`bsr_linalg::dag::snapshot_active`]) and fails.
//!
//! The fused-checksum property additionally rides `bsr-abft`'s fault injection
//! through the DAG: planned faults strike mid-schedule, Full checksums correct them,
//! and the corrected factors plus the injection/verification tallies must be
//! identical across every schedule and thread count.
//!
//! The same graph also runs one iteration at a time (the steppers, the numeric
//! engine's measured-feedback policy). The stepped-replay property pins that policy
//! and its rollback: an iteration spoiled and then restored from a checkpoint must
//! step on to factors bit-identical to the whole-run graph and the blocked driver.

use bsr_abft::checksum::ChecksumScheme;
use bsr_abft::fused::{FusedTileChecksums, PerIterationChecksums, PlannedFault};
use bsr_linalg::dag::{last_run_stats, DagExecution, DagRunStats, FactorGraph};
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::Matrix;
use bsr_linalg::task::{TileVerdict, TrailingHook};
use bsr_linalg::verify::{cholesky_residual, lu_residual};
use bsr_linalg::{cholesky, lu, qr, Element};
use hetero_sim::sdc::ErrorPattern;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::ThreadCountGuard;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Thread counts the pool sweeps: 1 = inline, 3 = odd worker count, 8 =
/// oversubscribed on small CI hosts.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// Adversarial completion orders per proptest case; with 16 cases per property this
/// replays 64 seeded schedules per factorization kind.
const REPLAY_SEEDS_PER_CASE: u64 = 4;

/// The shared runtime watchdog ([`bsr_linalg::dag::with_watchdog`]) at this suite's
/// 60-second deadline: a stranded dependency counter deadlocks a DAG run instead of
/// crashing it, and on timeout the in-flight runtime state is dumped for the
/// post-mortem.
fn with_watchdog<T: Send + 'static>(
    label: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    bsr_linalg::dag::with_watchdog(label, Duration::from_secs(60), f)
}

/// Assert the exactly-once invariant the runtime records after every drain.
fn assert_exactly_once(stats: DagRunStats, label: &str) {
    assert!(stats.tasks > 0, "{label}: empty task graph");
    assert_eq!(
        stats.executed, stats.tasks,
        "{label}: task leak — {} of {} tasks ran",
        stats.executed, stats.tasks
    );
}

/// The executions every case sweeps: seeded replay schedules plus the pool at every
/// thread count (`None` = replay, no thread guard needed).
fn schedules(case_seed: u64) -> Vec<(DagExecution, Option<usize>, String)> {
    let mut execs = Vec::new();
    for i in 0..REPLAY_SEEDS_PER_CASE {
        let seed = case_seed.wrapping_mul(0x9e37_79b9).wrapping_add(i);
        execs.push((DagExecution::Replay { seed }, None, format!("replay seed={seed}")));
    }
    for t in THREADS {
        execs.push((DagExecution::Pool, Some(t), format!("pool t={t}")));
    }
    execs
}

/// Relative Frobenius residual an f32 factorization of these small, well-scaled
/// inputs must reconstruct its input to (`n·ε_f32` with headroom for pivot growth).
const F32_RESIDUAL: f64 = 1e-4;

/// `run` under every schedule of the case, each run watchdogged and checked for
/// exactly-once execution; returns the labelled results.
fn dag_runs<T: Send + 'static>(
    kind: String,
    seed: u64,
    run: impl Fn(DagExecution) -> T + Clone + Send + 'static,
) -> Vec<(String, T)> {
    let mut runs = Vec::new();
    for (exec, threads, desc) in schedules(seed) {
        let label = format!("{kind} {desc}");
        let run = run.clone();
        let (out, stats) = with_watchdog(label.clone(), move || {
            let _guard = threads.map(ThreadCountGuard::set);
            let out = run(exec);
            (out, last_run_stats().expect("run must record stats"))
        });
        assert_exactly_once(stats, &label);
        runs.push((label, out));
    }
    runs
}

/// `lu_dag_with` at element type `E` under every schedule of the case.
fn lu_dag_runs<E: Element>(
    a: &Matrix<E>,
    block: usize,
    seed: u64,
) -> Vec<(String, lu::LuFactors<E>)> {
    let (a, kind) = (a.clone(), format!("lu<{}> n={} b={block}", E::NAME, a.rows()));
    dag_runs(kind, seed, move |exec| lu::lu_dag_with(&a, block, &(), exec).unwrap().0)
}

/// `cholesky_dag_with` at element type `E` under every schedule of the case.
fn cholesky_dag_runs<E: Element>(
    a0: &Matrix<E>,
    block: usize,
    seed: u64,
) -> Vec<(String, Matrix<E>)> {
    let (a0, kind) = (a0.clone(), format!("cholesky<{}> n={} b={block}", E::NAME, a0.rows()));
    dag_runs(kind, seed, move |exec| {
        let mut m = a0.clone();
        cholesky::cholesky_dag_with(&mut m, block, &(), exec).unwrap();
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dag_lu_is_bit_identical_under_adversarial_schedules(
        (n, block, extra, seed) in (1usize..44, 1usize..20, 0usize..3, any::<u64>())
    ) {
        // `extra` occasionally pushes the block past n to hit the single-panel path.
        let block = block + extra * n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);
        let sync = lu::lu_blocked(&a, block).unwrap();
        for (label, dag) in lu_dag_runs(&a, block, seed) {
            prop_assert_eq!(&sync.pivots, &dag.pivots, "pivots differ ({})", &label);
            prop_assert!(sync.lu == dag.lu, "LU factors not bit-identical ({})", &label);
        }
        // The same driver at f32: every schedule agrees with the first, and the
        // factors reconstruct P·A to f32 accuracy.
        let runs = lu_dag_runs(&a.demote(), block, seed);
        let (_, first) = &runs[0];
        for (label, dag) in &runs {
            prop_assert_eq!(&first.pivots, &dag.pivots, "pivots differ ({})", label);
            prop_assert!(first.lu == dag.lu, "LU factors not bit-identical ({})", label);
        }
        let promoted = lu::LuFactors { lu: first.lu.promote(), pivots: first.pivots.clone() };
        let residual = lu_residual(&a.demote().promote(), &promoted);
        prop_assert!(residual < F32_RESIDUAL, "f32 LU n={} b={}: residual {}", n, block, residual);
    }

    #[test]
    fn dag_cholesky_is_bit_identical_under_adversarial_schedules(
        (n, block, extra, seed) in (1usize..44, 1usize..20, 0usize..3, any::<u64>())
    ) {
        let block = block + extra * n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a0 = random_spd_matrix(&mut rng, n);
        let mut sync = a0.clone();
        cholesky::cholesky_blocked(&mut sync, block).unwrap();
        for (label, dag) in cholesky_dag_runs(&a0, block, seed) {
            prop_assert!(sync == dag, "Cholesky factors not bit-identical ({})", &label);
        }
        // The same driver at f32: every schedule agrees with the first, and the
        // factor reconstructs A to f32 accuracy.
        let runs = cholesky_dag_runs(&a0.demote(), block, seed);
        let (_, first) = &runs[0];
        for (label, dag) in &runs {
            prop_assert!(first == dag, "Cholesky factors not bit-identical ({})", label);
        }
        let residual = cholesky_residual(&a0.demote().promote(), &first.promote());
        prop_assert!(residual < F32_RESIDUAL, "f32 Cholesky n={} b={}: residual {}", n, block, residual);
    }

    #[test]
    fn dag_qr_is_bit_identical_under_adversarial_schedules(
        (m, n, block, seed) in (1usize..40, 1usize..40, 1usize..20, any::<u64>())
    ) {
        // Independent m and n cover square, tall and wide shapes (wide leaves
        // trailing column groups that outlive every panel).
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, n);
        let sync = qr::qr_blocked(&a, block);
        for (exec, threads, desc) in schedules(seed) {
            let label = format!("qr m={m} n={n} b={block} {desc}");
            let input = a.clone();
            let (dag, stats) = with_watchdog(label.clone(), move || {
                let _guard = threads.map(ThreadCountGuard::set);
                let (f, _) = qr::qr_dag_with(&input, block, &(), exec);
                (f, last_run_stats().expect("run must record stats"))
            });
            assert_exactly_once(stats, &label);
            prop_assert_eq!(&sync.taus, &dag.taus, "taus differ ({})", &label);
            prop_assert!(sync.qr == dag.qr, "QR factors not bit-identical ({})", &label);
        }
    }
}

/// `(m, n, block)` at the block sizes the benchmark factors with: blocks past the
/// recursive QR panel's leaf (17–40) or the benchmark's own 64 / 96 / 128, so every
/// panel splits one to three levels deep, on square, tall (`m > n`) and wide shapes.
fn qr_recursion_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    let block = (any::<bool>(), 17usize..41, prop::sample::select(vec![64usize, 96, 128]));
    (block, 1usize..301, 1usize..301, 0usize..3).prop_map(|((small, b, big), d1, d2, kind)| {
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        let (m, n) = match kind {
            0 => (d1, d1),
            1 => (hi, lo),
            _ => (lo, hi),
        };
        (m, n, if small { b } else { big })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn qr_recursive_panels_are_bit_identical_across_drivers_and_schedules(
        (m, n, block) in qr_recursion_shape(),
        seed in any::<u64>(),
    ) {
        let a = random_matrix(&mut ChaCha8Rng::seed_from_u64(seed), m, n);
        let sync = qr::qr_blocked(&a, block);
        let mut stepper = qr::QrTiledStepper::new(&a, block);
        for k in 0..stepper.iterations() {
            stepper.step(k, &());
        }
        let tiled = stepper.into_factors();
        prop_assert_eq!(&sync.taus, &tiled.taus, "tiled taus differ (m={} n={} b={})", m, n, block);
        prop_assert!(sync.qr == tiled.qr, "tiled QR factors differ (m={m} n={n} b={block})");
        for i in 0..REPLAY_SEEDS_PER_CASE {
            let exec = DagExecution::Replay { seed: seed.wrapping_add(i) };
            let label = format!("qr m={m} n={n} b={block} replay seed={}", seed.wrapping_add(i));
            let input = a.clone();
            let (dag, stats) = with_watchdog(label.clone(), move || {
                let (f, _) = qr::qr_dag_with(&input, block, &(), exec);
                (f, last_run_stats().expect("run must record stats"))
            });
            assert_exactly_once(stats, &label);
            prop_assert_eq!(&sync.taus, &dag.taus, "taus differ ({})", &label);
            prop_assert!(sync.qr == dag.qr, "QR factors not bit-identical ({})", &label);
        }
    }
}

/// One ABFT-fused DAG run: fresh per-iteration hooks (hooks are stateful), the
/// factorization, and everything that must be schedule-independent about it.
fn fused_lu_run(
    a: &Matrix,
    block: usize,
    faults: &[(usize, PlannedFault)],
    exec: DagExecution,
    threads: Option<usize>,
    label: String,
) -> (Result<lu::LuFactors, String>, usize, (usize, usize, usize), DagRunStats) {
    let iterations = a.rows().div_ceil(block);
    let mut per_iter: Vec<Vec<PlannedFault>> = vec![Vec::new(); iterations];
    for (k, f) in faults {
        per_iter[*k].push(*f);
    }
    let hooks = per_iter
        .into_iter()
        .map(|f| FusedTileChecksums::with_faults(ChecksumScheme::Full, block, f))
        .collect();
    let hook = PerIterationChecksums::new(hooks);
    let input = a.clone();
    with_watchdog(label, move || {
        let _guard = threads.map(ThreadCountGuard::set);
        let result = lu::lu_dag_with(&input, block, &hook, exec)
            .map(|(f, _)| f)
            .map_err(|e| e.to_string());
        let outcome = hook.outcome();
        let tally = (outcome.corrected_0d, outcome.corrected_k, outcome.uncorrectable);
        (
            result,
            hook.faults_injected(),
            tally,
            last_run_stats().expect("run must record stats"),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fault injection riding the DAG: planned faults strike their target tiles on
    /// whatever thread happens to run them, mid-schedule, and Full checksums correct
    /// them inside the task. Corrected factors and injection/verification tallies
    /// must not depend on the schedule.
    #[test]
    fn fused_injection_tallies_and_factors_are_schedule_independent(
        (b, tiles, tail, seed) in (4usize..9, 3usize..6, 0usize..2, any::<u64>())
    ) {
        let n = b * tiles + tail * (b / 2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);

        // One fault is always live (iteration 0's first trailing tile); extras land
        // on random aligned tiles of random iterations.
        let mut faults = vec![(
            0usize,
            PlannedFault::tile(0, b, ErrorPattern::ZeroD, seed),
        )];
        let extras = (seed % 3) as usize;
        for i in 0..extras {
            let c = 1 + (seed as usize >> (4 * i)) % (tiles - 1); // 1..tiles
            let r = (seed as usize >> (4 * i + 2)) % tiles;
            let k = r.min(c - 1);
            // Two faults striking the same tile of the same iteration combine into a
            // 2-D corruption no scheme corrects — legal, but it would void the
            // "something was corrected" assertion below, so keep targets distinct.
            if faults.iter().any(|(fk, f)| *fk == k && f.row == r * b && f.col == c * b) {
                continue;
            }
            let pattern = if i % 2 == 0 { ErrorPattern::OneD } else { ErrorPattern::ZeroD };
            faults.push((
                k,
                PlannedFault::tile(r * b, c * b, pattern, seed.wrapping_add(i as u64 + 1)),
            ));
        }

        let baseline_label = format!("fused-lu n={n} b={b} baseline");
        let baseline = fused_lu_run(
            &a, b, &faults,
            DagExecution::Replay { seed: seed.wrapping_mul(31) },
            None,
            baseline_label.clone(),
        );
        assert_exactly_once(baseline.3, &baseline_label);
        prop_assert!(baseline.1 >= 1, "at least one planned fault must fire");
        // Full checksums must have corrected something (the always-live 0-d fault).
        prop_assert!(baseline.2.0 + baseline.2.1 >= 1, "no correction recorded");

        for (exec, threads, desc) in schedules(seed.wrapping_add(97)) {
            let label = format!("fused-lu n={n} b={b} {desc}");
            let run = fused_lu_run(&a, b, &faults, exec, threads, label.clone());
            assert_exactly_once(run.3, &label);
            prop_assert_eq!(run.1, baseline.1, "injected-fault tallies differ ({})", &label);
            prop_assert_eq!(run.2, baseline.2, "verification tallies differ ({})", &label);
            match (&run.0, &baseline.0) {
                (Ok(f), Ok(bf)) => {
                    prop_assert_eq!(&f.pivots, &bf.pivots, "pivots differ ({})", &label);
                    prop_assert!(f.lu == bf.lu, "corrected factors differ ({})", &label);
                }
                (Err(e), Err(be)) => prop_assert_eq!(e, be, "errors differ ({})", &label),
                other => prop_assert!(false, "outcome differs from baseline: {:?}", other),
            }
        }
    }
}

/// A hook that spoils the iteration it rides: it bumps the first element of every
/// tile it sees, asks for a recompute on its very first call (rolled back, since it
/// opts into snapshots) and accepts the bumped tiles after that, so the iteration
/// ends corrupted and its lookahead panel is published from corrupted data.
struct Spoil(AtomicBool);

impl<E: Element> TrailingHook<E> for Spoil {
    fn after_tile_update(
        &self,
        _: usize,
        _: usize,
        _: usize,
        cols: &mut [&mut [E]],
    ) -> TileVerdict {
        if let Some(x) = cols.first_mut().and_then(|c| c.first_mut()) {
            *x = E::from_f64(x.to_f64() + 1.0);
        }
        if self.0.swap(true, Ordering::Relaxed) {
            TileVerdict::Accept
        } else {
            TileVerdict::Recompute
        }
    }

    fn wants_snapshots(&self) -> bool {
        true
    }
}

/// Step `graph` through its `iterations`, one graph each, with iteration `k` replayed:
/// checkpoint before it, run it under [`Spoil`] and discard the result, restore, and
/// run it again under the no-op hook. The restore must also unpublish the lookahead
/// panel the spoiled attempt factored, or the re-run would publish it twice.
fn step_with_replay<E: Element, G: FactorGraph<E>>(
    graph: &mut G,
    iterations: usize,
    k: usize,
) -> Result<(), G::Error> {
    for i in 0..iterations {
        if i == k {
            let snap = graph.checkpoint();
            let _ = graph.run(k..k + 1, &Spoil(AtomicBool::new(false)), DagExecution::Pool);
            graph.restore(&snap);
        }
        graph.run(i..i + 1, &(), DagExecution::Pool)?;
    }
    Ok(())
}

/// The whole-run replay schedules each stepped result is held to.
fn replays(seed: u64) -> impl Iterator<Item = (DagExecution, String)> {
    (0..REPLAY_SEEDS_PER_CASE).map(move |i| {
        let seed = seed.wrapping_add(i);
        (DagExecution::Replay { seed }, format!("replay seed={seed}"))
    })
}

/// LU stepped with iteration `k` (modulo the iteration count) replayed, held to the
/// whole-run graph under every replay schedule.
fn lu_stepped_matches_whole_run<E: Element>(
    a: &Matrix<E>,
    block: usize,
    k: usize,
    seed: u64,
) -> lu::LuFactors<E> {
    let mut stepper = lu::LuTiledStepper::new(a, block).unwrap();
    let iterations = stepper.iterations();
    step_with_replay(&mut stepper, iterations, k % iterations).unwrap();
    let stepped = stepper.into_factors();
    for (exec, label) in replays(seed) {
        let (whole, _) = lu::lu_dag_with(a, block, &(), exec).unwrap();
        prop_assert_eq!(&whole.pivots, &stepped.pivots, "lu<{}> pivots ({})", E::NAME, label);
        prop_assert!(whole.lu == stepped.lu, "lu<{}> factors ({})", E::NAME, label);
    }
    stepped
}

/// [`lu_stepped_matches_whole_run`] for Cholesky.
fn cholesky_stepped_matches_whole_run<E: Element>(
    a0: &Matrix<E>,
    block: usize,
    k: usize,
    seed: u64,
) -> Matrix<E> {
    let mut stepper = cholesky::CholeskyTiledStepper::new(a0.clone(), block).unwrap();
    let iterations = stepper.iterations();
    step_with_replay(&mut stepper, iterations, k % iterations).unwrap();
    let stepped = stepper.into_matrix();
    for (exec, label) in replays(seed) {
        let mut whole = a0.clone();
        cholesky::cholesky_dag_with(&mut whole, block, &(), exec).unwrap();
        prop_assert!(whole == stepped, "cholesky<{}> factor ({})", E::NAME, label);
    }
    stepped
}

/// [`lu_stepped_matches_whole_run`] for QR.
fn qr_stepped_matches_whole_run(a: &Matrix, block: usize, k: usize, seed: u64) -> qr::QrFactors {
    let mut stepper = qr::QrTiledStepper::new(a, block);
    let iterations = stepper.iterations();
    step_with_replay(&mut stepper, iterations, k % iterations).unwrap();
    let stepped = stepper.into_factors();
    for (exec, label) in replays(seed) {
        let (whole, _) = qr::qr_dag_with(a, block, &(), exec);
        prop_assert_eq!(&whole.taus, &stepped.taus, "qr taus ({})", label);
        prop_assert!(whole.qr == stepped.qr, "qr factors ({})", label);
    }
    stepped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The per-iteration policy and its rollback: step to a random iteration,
    /// checkpoint, spoil that iteration (one rolled-back attempt, then corrupted
    /// tiles and a lookahead panel factored from them), restore, and step to the end.
    /// The factors must be bit-identical to the whole-run graph and to the blocked
    /// driver, at one thread and on a live pool: LU, Cholesky and QR (square, tall
    /// and wide) at f64; LU and Cholesky at f32, where the whole-run graph is the
    /// reference.
    #[test]
    fn stepped_replay_restores_and_matches_whole_run(
        (block, iters, tail, seed) in (1usize..12, 2usize..5, 0usize..12, any::<u64>()),
        (dm, dn, k) in (0usize..30, 0usize..30, any::<usize>()),
    ) {
        // At least two iterations everywhere, so the spoiled step has a lookahead
        // panel to publish unless it is the last one.
        let n = block * (iters - 1) + 1 + tail % block;
        let (m, n_qr) = (block + 1 + dm, block + 1 + dn);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);
        let spd = random_spd_matrix(&mut rng, n);
        let aq = random_matrix(&mut rng, m, n_qr);
        let lu_sync = lu::lu_blocked(&a, block).unwrap();
        let mut chol_sync = spd.clone();
        cholesky::cholesky_blocked(&mut chol_sync, block).unwrap();
        let qr_sync = qr::qr_blocked(&aq, block);
        for t in [1usize, 4] {
            let label = format!("n={n} m={m} n_qr={n_qr} b={block} k={k} threads={t}");
            let (a, spd, aq) = (a.clone(), spd.clone(), aq.clone());
            let (lu_f, chol, qr_f) = with_watchdog(label.clone(), move || {
                let _guard = ThreadCountGuard::set(t);
                lu_stepped_matches_whole_run(&a.demote(), block, k, seed);
                cholesky_stepped_matches_whole_run(&spd.demote(), block, k, seed);
                (
                    lu_stepped_matches_whole_run(&a, block, k, seed),
                    cholesky_stepped_matches_whole_run(&spd, block, k, seed),
                    qr_stepped_matches_whole_run(&aq, block, k, seed),
                )
            });
            prop_assert_eq!(&lu_sync.pivots, &lu_f.pivots, "lu pivots vs blocked ({})", &label);
            prop_assert!(lu_sync.lu == lu_f.lu, "lu factors vs blocked ({})", &label);
            prop_assert!(chol_sync == chol, "cholesky factor vs blocked ({})", &label);
            prop_assert_eq!(&qr_sync.taus, &qr_f.taus, "qr taus vs blocked ({})", &label);
            prop_assert!(qr_sync.qr == qr_f.qr, "qr factors vs blocked ({})", &label);
        }
    }
}

/// A dead column in a later panel: the stepped driver (whose step before that panel
/// fails when its lookahead meets the column), the whole-run graph under every replay
/// schedule and the blocked driver all report the same `Singular(j)`.
#[test]
fn singular_column_in_a_later_panel_fails_alike_on_every_driver() {
    let (n, block, dead) = (40, 8, 29);
    let mut a = random_matrix(&mut ChaCha8Rng::seed_from_u64(91), n, n);
    for i in 0..n {
        a.set(i, dead, 0.0);
    }
    let want = lu::lu_blocked(&a, block).map(|f| f.pivots);
    assert_eq!(want, Err(lu::LuError::Singular(dead)));
    for t in [1, 4] {
        let _guard = ThreadCountGuard::set(t);
        let stepped = lu::LuTiledStepper::new(&a, block).and_then(|mut stepper| {
            for k in 0..stepper.iterations() {
                stepper.step(k, &())?;
            }
            Ok(stepper.into_factors().pivots)
        });
        assert_eq!(stepped, want, "stepped, threads={t}");
    }
    for (exec, label) in replays(7) {
        let whole = lu::lu_dag_with(&a, block, &(), exec).map(|(f, _)| f.pivots);
        assert_eq!(whole, want, "whole-run, {label}");
    }
}
