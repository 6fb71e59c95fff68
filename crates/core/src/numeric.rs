//! Numeric-mode driver: real tiled factorizations with measured-time feedback, fused
//! ABFT and fault injection.
//!
//! At paper scale the timing/energy questions are answered analytically, but the
//! *reliability* claims of ABFT-OC (errors are detected and corrected, the factorization
//! result stays numerically correct) deserve an end-to-end demonstration on real data.
//! The numeric driver is a **plan-driven tiled execution engine** connecting all five
//! layers of the workspace, one blocked iteration at a time:
//!
//! 1. the iteration's [`IterationPlan`](bsr_sched::strategy::IterationPlan) comes from
//!    `bsr-sched` via [`AnalyticDriver::begin_step`] (frequencies, guardbands, ABFT
//!    scheme, sampled SDC events);
//! 2. the iteration runs in the decomposition's task graph on `bsr-linalg`'s
//!    dependency-driven runtime ([`lu::LuTiledStepper`],
//!    [`cholesky::CholeskyTiledStepper`], [`qr::QrTiledStepper`], all a
//!    [`FactorGraph`]), under one of two execution policies of the same graph. With
//!    measured feedback **on**, each iteration runs as its own graph, because feedback
//!    needs its measured durations before the next one is planned; that caps
//!    lookahead at one panel. With feedback **off** every iteration is planned up
//!    front and the whole factorization runs as one graph with depth-unbounded
//!    lookahead: a trailing tile of iteration `k + 2` starts the moment its inputs
//!    are final, while slow tiles of iteration `k` are still in flight. [`Precision`]
//!    only picks the element type: a [`Precision::MixedF32`] job is the same graph at
//!    `E = f32` (same hooks, recovery ladder and accounting, whole-run) followed by an
//!    f64 iterative-refinement epilogue;
//! 3. checksum maintenance rides those tasks through `bsr-abft`'s
//!    [`FusedTileChecksums`] — one hook for both element types, always computing in
//!    f64 — every iteration the active scheme protects pays the full encode + verify
//!    cost, and each sampled SDC event is injected into its target tile *between*
//!    encode and verify, the window a real silent corruption of the update occupies;
//! 4. the **measured** wall-clock durations of the panel and update streams are
//!    charged to a [`Timeline`] (`hetero-sim`) alongside the analytic estimates;
//! 5. the measured durations are fed back into the slack predictor
//!    ([`AnalyticDriver::finish_step`]), so SR/R2H/BSR plans react to real execution —
//!    the paper's feedback loop (disable with
//!    [`RunConfig::with_measured_feedback`]`(false)` for bit-reproducible plans).
//!
//! Intended for moderate sizes (n up to a few thousand); the test-suite and examples use
//! n in the hundreds.

use crate::analytic::{AnalyticDriver, ObservedDurations};
use crate::config::{Precision, RunConfig};
use crate::report::RunReport;
use crate::trace::SdcEvent;
use bsr_abft::checksum::VerifyOutcome;
use bsr_abft::fused::{FaultTarget, FusedTileChecksums, PerIterationChecksums, PlannedFault};
use bsr_abft::recover::{RecoveryAction, RecoveryEvent, RecoveryTracker};
use bsr_linalg::dag::{DagExecution, FactorGraph};
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::solve::{cholesky_solve, lu_solve};
use bsr_linalg::verify::{cholesky_residual, lu_residual, qr_residual, CORRECTNESS_THRESHOLD};
use bsr_linalg::{blas3, cholesky, lu, qr, Element, Trans};
use bsr_sched::workload::Decomposition;
use hetero_sim::device::DeviceKind;
use hetero_sim::sdc::FaultMix;
use hetero_sim::timeline::Timeline;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

/// Error produced by a numeric-mode run.
#[derive(Debug)]
pub enum NumericError {
    /// The Cholesky panel hit a non-positive or non-finite pivot (matrix corrupted
    /// beyond repair or not SPD — to f32 precision on a mixed-precision run).
    Cholesky(cholesky::CholeskyError),
    /// The LU panel hit an exactly singular or non-finite column (to f32 precision on
    /// a mixed-precision run).
    Lu(lu::LuError),
    /// The input matrix does not match the configured workload (wrong order, or not
    /// square).
    ShapeMismatch {
        /// Rows of the offending input.
        rows: usize,
        /// Columns of the offending input.
        cols: usize,
        /// The square order the workload expects.
        expected: usize,
    },
    /// The recovery ladder was exhausted: an uncorrectable fault survived every
    /// tile recomputation and iteration/run replay the [`RecoveryPolicy`] allows
    /// (or a persistent fault was detected and escalation was immediate). The run
    /// fails *structurally* — with the full recovery history — instead of
    /// returning silently corrupted factors.
    ///
    /// [`RecoveryPolicy`]: bsr_abft::recover::RecoveryPolicy
    UnrecoverableFault {
        /// Everything the recovery pipeline did before giving up, in canonical
        /// (schedule-independent) order.
        history: Vec<RecoveryEvent>,
    },
    /// The mixed-precision path was requested for a decomposition that has no f32
    /// driver (QR: Householder reflectors lose too much orthogonality in f32 for
    /// normwise refinement to recover, so the path is not offered).
    MixedUnsupported {
        /// The offending decomposition.
        dec: Decomposition,
    },
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericError::Cholesky(e) => write!(f, "cholesky failed: {e}"),
            NumericError::Lu(e) => write!(f, "lu failed: {e}"),
            NumericError::ShapeMismatch { rows, cols, expected } => write!(
                f,
                "input is {rows}x{cols} but the workload expects a square {expected}x{expected} matrix"
            ),
            NumericError::UnrecoverableFault { history } => {
                let escalations =
                    history.iter().filter(|e| e.action == RecoveryAction::Escalated).count();
                write!(
                    f,
                    "unrecoverable fault: recovery exhausted after {n} events \
                     ({escalations} persistent-fault escalations)",
                    n = history.len()
                )
            }
            NumericError::MixedUnsupported { dec } => {
                write!(f, "mixed precision is not supported for {dec:?} (LU and Cholesky only)")
            }
        }
    }
}

impl std::error::Error for NumericError {}

impl From<cholesky::CholeskyError> for NumericError {
    fn from(e: cholesky::CholeskyError) -> Self {
        NumericError::Cholesky(e)
    }
}

impl From<lu::LuError> for NumericError {
    fn from(e: lu::LuError) -> Self {
        NumericError::Lu(e)
    }
}

/// QR panels cannot fail.
impl From<Infallible> for NumericError {
    fn from(e: Infallible) -> Self {
        match e {}
    }
}

/// The factors a numeric-mode run produced.
#[derive(Debug, Clone)]
pub enum NumericFactors {
    /// Cholesky factor storage: the lower triangle holds `L`, the strictly upper
    /// triangle is the untouched input.
    Cholesky(Matrix),
    /// LU factors with pivots.
    Lu(lu::LuFactors),
    /// Compact QR factors with Householder scalars.
    Qr(qr::QrFactors),
    /// Mixed-precision LU: the factors are f32 (the refined f64 solution lives in
    /// the run's [`MixedRefinement`] record, not in the factors).
    MixedLu(lu::LuFactors<f32>),
    /// Mixed-precision Cholesky factor storage, f32.
    MixedCholesky(Matrix<f32>),
}

impl NumericFactors {
    /// Solve `A X = B` against the factors this run produced, so service clients
    /// get solutions rather than raw factor storage.
    ///
    /// LU and Cholesky solve directly through the `bsr-linalg::solve` drivers; the
    /// mixed-precision variants demote the right-hand side, solve in f32 and
    /// promote (a single preconditioner sweep — callers wanting f64-accurate
    /// solutions should request them through the run's refinement record).
    /// Returns `None` for QR factors: the least-squares solve is not offered.
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        match self {
            NumericFactors::Cholesky(l) => Some(cholesky_solve(l, b)),
            NumericFactors::Lu(f) => Some(f.solve(b)),
            NumericFactors::MixedLu(_) | NumericFactors::MixedCholesky(_) => {
                Some(mixed_solve(self, b))
            }
            NumericFactors::Qr(_) => None,
        }
    }
}

/// Measured-vs-modelled record of one numeric iteration.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredIteration {
    /// Iteration index (0-based).
    pub k: usize,
    /// Measured duration of the lookahead panel factorization (panel `k + 1`).
    pub pd_s: f64,
    /// Measured duration of the iteration's trailing update. Under the per-iteration
    /// policy (measured feedback on) this is the wall-clock duration of the
    /// iteration's own task graph (includes the lookahead panel and the fused checksum
    /// work), the duration the predictor learns from; under the whole-run policy it is
    /// the CPU-summed duration of the iteration's trailing-update tasks, which overlap
    /// other iterations and belong to no wall-clock phase.
    pub update_s: f64,
    /// Fused checksum seconds of this iteration (CPU-summed across tasks).
    pub checksum_s: f64,
    /// The predictor's pre-iteration prediction of the panel duration (`None` for the
    /// profiling iteration).
    pub predicted_pd_s: Option<f64>,
    /// The predictor's pre-iteration prediction of the GPU-stream (update) duration.
    pub predicted_update_s: Option<f64>,
    /// The analytic model's estimate of the panel duration on the simulated CPU.
    pub analytic_pd_s: f64,
    /// The analytic model's estimate of the GPU-stream duration (PU + TMU + ABFT).
    pub analytic_update_s: f64,
}

/// The f64 iterative-refinement record of a mixed-precision
/// ([`Precision::MixedF32`]) run.
#[derive(Debug, Clone, Copy)]
pub struct MixedRefinement {
    /// Correction sweeps applied beyond the initial f32 solve.
    pub refine_iters: usize,
    /// Final normwise relative backward error
    /// `η = ‖b − Ax‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of the refined solution.
    pub backward_error: f64,
    /// Convergence threshold the sweep targeted (`4·n·ε_f64`, the backward error a
    /// *direct* f64 solve of a well-conditioned system delivers).
    pub tol: f64,
    /// Whether refinement reached `tol` within the sweep budget. Uncorrected SDC
    /// strikes and f32 accumulation blowups surface here as `false` — the mixed
    /// path's structured-failure signal.
    pub converged: bool,
    /// Wall-clock seconds of the whole f64 recovery phase (initial solve, residual
    /// evaluations and correction sweeps).
    pub solve_seconds: f64,
}

/// Result of a numeric-mode run: the analytic-style report plus numerical evidence and
/// the measured execution record.
#[derive(Debug, Clone)]
pub struct NumericRunReport {
    /// Timing/energy/SDC report (same shape as an analytic run; timing/energy are the
    /// *analytic* estimates under the plans that actually drove the run).
    pub report: RunReport,
    /// The factors the run produced.
    pub factors: NumericFactors,
    /// Relative factorization residual against the original input, for f64 runs.
    /// `f64::NAN` on mixed-precision runs — not computed: a mixed run is judged by
    /// [`NumericRunReport::mixed`], and its f32 factors are only f32-accurate by
    /// construction, so an f64 sweep over their promoted copy would decide nothing.
    pub residual: f64,
    /// Aggregated checksum verification outcome over all iterations.
    pub verification: VerifyOutcome,
    /// Number of faults physically injected into matrix data.
    pub faults_injected: usize,
    /// Whether the final result is numerically correct: residual below
    /// [`CORRECTNESS_THRESHOLD`] for f64 runs, refinement convergence to f64
    /// backward error for mixed-precision runs (whose f32 *factors* are only
    /// f32-accurate by construction — see [`NumericRunReport::mixed`]).
    pub numerically_correct: bool,
    /// Measured per-device timeline: panel factorizations on the CPU stream concurrent
    /// with trailing-update regions on the GPU stream, one barrier per iteration.
    pub timeline: Timeline,
    /// Per-iteration measured durations with the matching predictions and analytic
    /// estimates.
    pub measured: Vec<MeasuredIteration>,
    /// Total fused checksum seconds (CPU-summed across tasks; equals the wall-clock
    /// checksum share on one thread, an upper bound on it when tasks overlap).
    pub checksum_cpu_s: f64,
    /// Everything the recovery pipeline did during the run (in-place corrections,
    /// tile recomputations, iteration/run replays), in canonical order. Empty when
    /// recovery is disabled.
    pub recovery: Vec<RecoveryEvent>,
    /// Iterative-refinement record of a mixed-precision run; `None` for f64 runs.
    pub mixed: Option<MixedRefinement>,
}

impl NumericRunReport {
    /// Measured makespan of the run (the two-stream timeline's completion time).
    pub fn measured_makespan_s(&self) -> f64 {
        self.timeline.makespan()
    }

    /// Fused checksum share of the measured update stream.
    pub fn measured_checksum_fraction(&self) -> f64 {
        let update: f64 = self.measured.iter().map(|m| m.update_s).sum();
        if update > 0.0 { self.checksum_cpu_s / update } else { 0.0 }
    }

    /// Mean relative error of the slack predictor's update-stream predictions against
    /// the *measured* durations, over iterations with both a prediction and real
    /// trailing work. With measured feedback enabled this is the paper's
    /// predicted-vs-observed error; `None` when no iteration qualifies.
    pub fn mean_predictor_error(&self) -> Option<f64> {
        mean_relative_error(self.qualifying().map(|m| (m.predicted_update_s.unwrap(), m.update_s)))
    }

    /// Mean relative error of the *analytic model's* update-stream estimates against
    /// the measured durations, over the same iterations as
    /// [`Self::mean_predictor_error`] — the baseline a predictor that never observes
    /// real execution cannot beat.
    pub fn mean_analytic_error(&self) -> Option<f64> {
        mean_relative_error(self.qualifying().map(|m| (m.analytic_update_s, m.update_s)))
    }

    /// Iterations that had a prediction and real trailing work.
    fn qualifying(&self) -> impl Iterator<Item = &MeasuredIteration> {
        self.measured.iter().filter(|m| {
            m.predicted_update_s.is_some() && m.update_s > 0.0 && m.analytic_update_s > 0.0
        })
    }
}

fn mean_relative_error(pairs: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    let errors: Vec<f64> = pairs
        .map(|(predicted, actual)| (predicted - actual).abs() / actual)
        .collect();
    if errors.is_empty() {
        None
    } else {
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    }
}

/// The final numerical verification every f64 run ends with: the relative
/// factorization residual against the original input. Cholesky factor storage goes
/// in as it is (`cholesky_residual` reads the lower triangle only). Mixed factors get
/// NaN — not computed: a mixed run is judged by its refinement.
fn factorization_residual(input: &Matrix, factors: &NumericFactors) -> f64 {
    match factors {
        NumericFactors::Cholesky(m) => cholesky_residual(input, m),
        NumericFactors::Lu(f) => lu_residual(input, f),
        NumericFactors::Qr(f) => qr_residual(input, f),
        NumericFactors::MixedLu(_) | NumericFactors::MixedCholesky(_) => f64::NAN,
    }
}

/// Run a numeric-mode factorization for `cfg`, generating a reproducible random input.
///
/// # Examples
///
/// Factorize a real 128×128 SPD matrix via blocked Cholesky with ABFT managed
/// adaptively, and check the residual:
///
/// ```
/// use bsr_core::numeric::run_numeric;
/// use bsr_core::config::RunConfig;
/// use bsr_sched::strategy::{BsrConfig, Strategy};
/// use bsr_sched::workload::Decomposition;
///
/// let cfg = RunConfig::small(Decomposition::Cholesky, 128, 32, Strategy::Bsr(BsrConfig::default()));
/// let report = run_numeric(cfg).unwrap();
/// assert!(report.numerically_correct);
/// assert!(report.residual < 1e-12);
/// assert!(report.measured_makespan_s() > 0.0);
/// ```
pub fn run_numeric(cfg: RunConfig) -> Result<NumericRunReport, NumericError> {
    let input = generate_input(&cfg);
    run_numeric_on(cfg, &input)
}

/// The deterministic input matrix a [`run_numeric`] call would factor for `cfg`:
/// SPD for Cholesky workloads, dense random otherwise, from a ChaCha8 stream keyed
/// by `cfg.seed`. The service layer generates each job's input through this same
/// function, so a service job and a solo [`run_numeric`] run with the same config
/// factor bit-identical data.
pub fn generate_input(cfg: &RunConfig) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
    let n = cfg.workload.n;
    match cfg.workload.decomposition {
        Decomposition::Cholesky => random_spd_matrix(&mut rng, n),
        Decomposition::Lu | Decomposition::Qr => random_matrix(&mut rng, n, n),
    }
}

/// Run a numeric-mode factorization of a caller-provided matrix.
///
/// This is a thin wrapper over the service layer's
/// [`JobHandle`](crate::service::JobHandle): the run executes as a single
/// anonymous job (fresh job id, job-scoped DAG stats and fair-lane submission),
/// which is exactly how the multi-tenant service executes each admitted job.
///
/// Returns [`NumericError::ShapeMismatch`] when `input` is not the square
/// `n × n` matrix the workload describes.
pub fn run_numeric_on(cfg: RunConfig, input: &Matrix) -> Result<NumericRunReport, NumericError> {
    let handle = crate::service::JobHandle::solo(cfg, input.clone())?;
    let result = handle.run();
    // A solo run's job-keyed DAG stats have no consumer once the thread-local
    // `last_run_stats` copy exists; drop the table entry so one-shot runs do not
    // accumulate process-global state.
    bsr_linalg::dag::clear_job_stats(handle.id().as_u64());
    result
}

/// Engine dispatch shared by every execution surface: the decomposition's task graph
/// at the run's element type, driven by [`run_graph`]. [`Precision::MixedF32`] is the
/// same graph at `E = f32` over the demoted input; QR has no f32 path. The caller has
/// already validated the input shape.
pub(crate) fn dispatch(cfg: RunConfig, input: &Matrix) -> Result<NumericRunReport, NumericError> {
    let b = cfg.workload.block;
    match (cfg.workload.decomposition, cfg.precision) {
        (Decomposition::Cholesky, Precision::F64) => run_graph(
            cfg,
            input,
            || cholesky::CholeskyTiledStepper::new(input.clone(), b),
            |g| NumericFactors::Cholesky(g.into_matrix()),
        ),
        (Decomposition::Cholesky, Precision::MixedF32) => {
            let a = input.demote();
            run_graph(
                cfg,
                input,
                || cholesky::CholeskyTiledStepper::new(a.clone(), b),
                |g| NumericFactors::MixedCholesky(g.into_matrix()),
            )
        }
        (Decomposition::Lu, Precision::F64) => run_graph(
            cfg,
            input,
            || lu::LuTiledStepper::new(input, b),
            |g| NumericFactors::Lu(g.into_factors()),
        ),
        (Decomposition::Lu, Precision::MixedF32) => {
            let a = input.demote();
            run_graph(
                cfg,
                input,
                || lu::LuTiledStepper::new(&a, b),
                |g| NumericFactors::MixedLu(g.into_factors()),
            )
        }
        (Decomposition::Qr, Precision::F64) => run_graph(
            cfg,
            input,
            || Ok(qr::QrTiledStepper::new(input, b)),
            |g| NumericFactors::Qr(g.into_factors()),
        ),
        (dec @ Decomposition::Qr, Precision::MixedF32) => {
            Err(NumericError::MixedUnsupported { dec })
        }
    }
}

/// The engine loop: plan, run the task graph `build` makes with checksums fused per
/// task, recover, and account, under one of two execution policies.
///
/// - **Per-iteration** (`measured_feedback` on an f64 run): each iteration is its own
///   graph, planned after the previous one's measured durations have reached the
///   predictor — the paper's feedback loop, which caps lookahead at one panel.
/// - **Whole-run** (otherwise): every iteration is planned up front, so the plans see
///   only the analytic predictor and the seeded SDC sampler (bit-reproducible), and
///   the factorization runs as one graph with depth-unbounded lookahead. Mixed runs
///   stay here whatever `measured_feedback` says, which keeps their plans
///   reproducible.
///
/// The per-iteration record attributes measured durations to tasks: `pd_s` is the
/// iteration's lookahead `Panel(k + 1)` task, `checksum_s` its fused-hook encode +
/// verify share. `update_s` is the wall time of the iteration's graph per-iteration
/// (what the predictor learns from), and the CPU-summed duration of its trailing tasks
/// whole-run, where they overlap other iterations' tasks and no wall interval
/// contains them.
///
/// A mixed run appends the f64 refinement epilogue ([`refine`]). What differs, all
/// visible in the report: `numerically_correct` means *refinement converged to f64
/// backward error*, `residual` is NaN (the f32 factors are f32-accurate by
/// construction, so no residual of theirs is computed), and the timeline ends in a
/// `REFINE` task.
fn run_graph<E: Element, G: FactorGraph<E>>(
    cfg: RunConfig,
    input: &Matrix,
    build: impl Fn() -> Result<G, G::Error>,
    into_factors: impl FnOnce(G) -> NumericFactors,
) -> Result<NumericRunReport, NumericError>
where
    NumericError: From<G::Error>,
{
    let (n, b, dec) = (cfg.workload.n, cfg.workload.block, cfg.workload.decomposition);
    let iterations = cfg.workload.iterations();
    let per_iteration = cfg.measured_feedback && cfg.precision == Precision::F64;
    // The policy is how many iterations one graph runs.
    let per_graph = if per_iteration { 1 } else { iterations.max(1) };
    let mut inject_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0bad_5eed);
    let mut driver = AnalyticDriver::new(cfg.clone());
    let tracker =
        cfg.recovery.enabled.then(|| Arc::new(RecoveryTracker::new(cfg.recovery)));
    let mut graph = build()?;
    let mut verification = VerifyOutcome::default();
    let mut faults_injected = 0usize;
    let mut checksum_cpu_s = 0.0;
    let mut measured = Vec::with_capacity(iterations);
    let mut clocks = Vec::with_capacity(iterations);

    for start in (0..iterations).step_by(per_graph) {
        let seg = start..(start + per_graph).min(iterations);
        // --- plan the segment's iterations and sample their SDC events ------------------
        // The injection RNG is drawn in iteration order under either policy, so both
        // plan bit-identical faults for the same plans.
        let mut plans = Vec::with_capacity(seg.len());
        let mut pending = None;
        for k in seg.clone() {
            let step = driver.begin_step(k);
            let trace = step.trace();
            let tiles = protected_tiles(dec, n, b, k);
            let panel_col = ((k + 1) * b < n).then(|| (k + 1) * b);
            let faults = if tiles.is_empty() {
                Vec::new()
            } else {
                plan_faults_with_mix(
                    &trace.sdc_events,
                    &tiles,
                    &mut inject_rng,
                    &cfg.fault_mix,
                    panel_col,
                )
            };
            plans.push((trace.abft, faults));
            clocks.push((trace.cpu_freq, trace.gpu_freq));
            let (preds, analytic) = (step.predictions(), trace.timing);
            measured.push(MeasuredIteration {
                k,
                pd_s: 0.0,
                update_s: 0.0,
                checksum_s: 0.0,
                predicted_pd_s: preds.map(|p| p.cpu_s),
                predicted_update_s: preds.map(|p| p.gpu_s),
                analytic_pd_s: analytic.pd_s,
                analytic_update_s: analytic.pu_s + analytic.tmu_s + analytic.abft_s,
            });
            if per_iteration {
                pending = Some(step);
            } else {
                driver.finish_step(step, None);
            }
        }

        // --- run the segment's graph, checksums fused per task -------------------------
        // Recovery ladder: steps 1–2 (in-place correction, tile/panel recomputation) run
        // inside the graph through the hooks' verdicts and the DAG's retry path (same
        // task id, exactly-once accounting preserved). Step 3 replays the segment: from a
        // pre-iteration checkpoint per-iteration, from the input whole-run, where a
        // depth-unbounded schedule has no iteration boundary to checkpoint at. Every
        // protected iteration pays its encode + verify whether or not a fault is
        // sampled, and a fresh hook per attempt keeps the final tallies identical to a
        // clean run's whenever recovery succeeds — rolled-back attempts leave no trace.
        let checkpoint = (per_iteration && tracker.is_some()).then(|| graph.checkpoint());
        let (hook, wall_s) = loop {
            let hooks = plans.iter().map(|(scheme, faults)| {
                let hook = FusedTileChecksums::with_faults(*scheme, b, faults.clone());
                match &tracker {
                    Some(t) => hook.with_recovery(Arc::clone(t)),
                    None => hook,
                }
            });
            let hook = PerIterationChecksums::starting_at(seg.start, hooks.collect());
            let wall_s = graph.run(seg.clone(), &hook, DagExecution::Pool)?;
            let Some(t) = &tracker else { break (hook, wall_s) };
            if t.is_suspect() {
                // Persistent fault: recomputing or replaying would loop.
                return Err(NumericError::UnrecoverableFault { history: t.history() });
            }
            if !t.has_unresolved() {
                break (hook, wall_s);
            }
            let action = if per_iteration {
                RecoveryAction::IterationReplayed
            } else {
                RecoveryAction::RunReplayed
            };
            if !t.begin_replay(action) {
                return Err(NumericError::UnrecoverableFault { history: t.history() });
            }
            match &checkpoint {
                Some(snap) => graph.restore(snap),
                None => graph = build()?,
            }
        };
        verification.merge(&hook.outcome());
        faults_injected += hook.faults_injected();
        checksum_cpu_s += hook.checksum_seconds();

        // --- attribute the measured durations, then commit the pending plan -----------
        let timing = graph.timing();
        for k in seg.clone() {
            let m = &mut measured[k];
            m.pd_s = timing.panel_s.get(k + 1).copied().unwrap_or(0.0);
            m.update_s = if per_iteration { wall_s } else { timing.update_s[k] };
            m.checksum_s = hook.hook(k).checksum_seconds();
        }
        if let Some(step) = pending {
            let m = &measured[seg.start];
            let observed = ObservedDurations { pd_s: m.pd_s, update_s: m.update_s };
            driver.finish_step(step, Some(&observed));
        }
    }

    // --- final numerical verification against the original input ----------------------
    // Once, on the attempt the ladder settled on: an abandoned attempt is replayed
    // whatever its residual, so verifying it would only add to the replay cost.
    // Mixed precision is judged by the refinement's convergence alone. The residual of
    // its f32-accurate factors (a promoted copy and a full f64 sweep, more than the f32
    // factorization itself costs) would decide nothing, so it is not computed: NaN.
    let pd0 = graph.timing().panel_s.first().copied().unwrap_or(0.0);
    let factors = into_factors(graph);
    let residual = factorization_residual(input, &factors);
    let mixed = (cfg.precision == Precision::MixedF32).then(|| refine(&cfg, input, &factors));

    // --- the two-stream timeline ------------------------------------------------------
    // Panel 0 is the sequential prologue every hybrid run pays before its first
    // overlapped iteration (charged to the CPU stream at the base clock); then one
    // PD/UPDATE pair per iteration, and for a mixed run a final CPU-stream REFINE task,
    // so its makespan is end-to-end: factor + protect + refine.
    let cpu_base = driver.platform().cpu.base_freq;
    let mut timeline = Timeline::new();
    timeline.push_task(DeviceKind::Cpu, "PD0", 0, pd0, cpu_base);
    timeline.sync();
    for (m, &(cpu_freq, gpu_freq)) in measured.iter().zip(&clocks) {
        timeline.push_task(DeviceKind::Cpu, "PD", m.k, m.pd_s, cpu_freq);
        timeline.push_task(DeviceKind::Gpu, "UPDATE", m.k, m.update_s, gpu_freq);
        timeline.sync();
    }
    if let Some(m) = &mixed {
        timeline.push_task(DeviceKind::Cpu, "REFINE", iterations, m.solve_seconds, cpu_base);
        timeline.sync();
    }

    let report = driver.into_report();
    Ok(NumericRunReport {
        numerically_correct: mixed.map_or(residual < CORRECTNESS_THRESHOLD, |m| m.converged),
        report,
        factors,
        residual,
        verification,
        faults_injected,
        timeline,
        measured,
        checksum_cpu_s,
        recovery: tracker.map(|t| t.history()).unwrap_or_default(),
        mixed,
    })
}

/// Maximum correction sweeps of the mixed path's f64 iterative refinement. Clean
/// well-conditioned systems converge in 1–3 sweeps; a budget this size only runs out
/// when the f32 factors are corrupted or the system is too ill-conditioned for f32
/// factors to precondition (`κ(A)·ε_f32 ≳ 1`).
const MAX_REFINE_SWEEPS: usize = 10;

/// The f64 iterative-refinement epilogue of a [`Precision::MixedF32`] run: solve a
/// deterministic right-hand side (from the run seed) through the f32 `factors`, then
/// sweep — each sweep solves the f64 residual system through the f32 factors and adds
/// the correction in f64. The backward error is evaluated *before* each correction,
/// so `converged` certifies the returned solution, not a predecessor. Uncorrected
/// strikes and f32 blowups that the recovery ladder did not (or was not enabled to)
/// repair surface here as `converged = false`.
fn refine(cfg: &RunConfig, input: &Matrix, factors: &NumericFactors) -> MixedRefinement {
    let n = cfg.workload.n;
    let t_refine = Instant::now();
    let mut rhs_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x00f3_2d0c);
    let rhs = random_matrix(&mut rhs_rng, n, 1);
    let a_norm = inf_norm(input);
    let b_norm = inf_norm(&rhs);
    let tol = 4.0 * n as f64 * f64::EPSILON;
    let mut x = mixed_solve(factors, &rhs);
    let mut refine_iters = 0usize;
    let mut backward_error;
    let mut converged = false;
    loop {
        let ax = blas3::gemv(input, Trans::No, &x);
        let mut r = rhs.clone();
        for (ri, &axi) in r.data_mut().iter_mut().zip(ax.data()) {
            *ri -= axi;
        }
        backward_error = inf_norm(&r) / (a_norm * inf_norm(&x) + b_norm);
        if backward_error <= tol {
            converged = true;
            break;
        }
        // Non-finite η means the factors carry a blowup or uncorrected burst:
        // further sweeps would only propagate NaNs.
        if !backward_error.is_finite() || refine_iters >= MAX_REFINE_SWEEPS {
            break;
        }
        let d = mixed_solve(factors, &r);
        for (xi, &di) in x.data_mut().iter_mut().zip(d.data()) {
            *xi += di;
        }
        refine_iters += 1;
    }
    MixedRefinement {
        refine_iters,
        backward_error,
        tol,
        converged,
        solve_seconds: t_refine.elapsed().as_secs_f64(),
    }
}

/// ∞-norm: maximum absolute row sum (for an `n × 1` column this is the vector
/// ∞-norm, so one helper serves both uses in the refinement loop).
fn inf_norm(m: &Matrix) -> f64 {
    if m.rows() == 0 {
        return 0.0;
    }
    // Row sums in one contiguous pass over the column-major backing (a row-indexed
    // double loop strides by `rows` on every access — a cache miss per element on
    // the refinement loop's n × n operand).
    let mut sums = vec![0.0f64; m.rows()];
    for col in m.data().chunks_exact(m.rows()) {
        for (s, &v) in sums.iter_mut().zip(col) {
            *s += v.abs();
        }
    }
    sums.into_iter().fold(0.0, f64::max)
}

/// One solve through the mixed-precision f32 factors: demote the f64 right-hand
/// side, solve in f32, promote the result (the refinement loop's preconditioner).
fn mixed_solve(factors: &NumericFactors, rhs: &Matrix) -> Matrix {
    let r32 = rhs.demote();
    match factors {
        NumericFactors::MixedLu(f) => lu_solve(&f.lu, &f.pivots, &r32).promote(),
        NumericFactors::MixedCholesky(l) => cholesky_solve(l, &r32).promote(),
        _ => unreachable!("mixed_solve called with non-mixed factors"),
    }
}

/// The `block × block` tile grid the fused checksum hook protects in iteration `k`:
/// everything the iteration's *update tasks* write (the GPU-side work the paper's
/// ABFT-OC must cover). For LU and QR that is rows `[k·block, n)` of the trailing
/// columns — including the `U12` / `R` band `[k·block, (k+1)·block)`, which becomes
/// final factor entries this iteration and is never revisited (skipping it would
/// leave those values permanently unchecked); for Cholesky only the
/// lower-triangular staircase below the panel (the strictly upper tiles are never
/// touched by the factorization, and the panel's TRSM is CPU-side panel work).
pub fn protected_tiles(dec: Decomposition, n: usize, block: usize, k: usize) -> Vec<Block> {
    let start = (k + 1) * block;
    if start >= n {
        return Vec::new();
    }
    let mut tiles = Vec::new();
    let mut c = start;
    while c < n {
        let cols = block.min(n - c);
        let rfrom = match dec {
            Decomposition::Cholesky => c,
            Decomposition::Lu | Decomposition::Qr => k * block,
        };
        let mut r = rfrom;
        while r < n {
            let rows = block.min(n - r);
            tiles.push(Block::new(r, c, rows, cols));
            r += rows;
        }
        c += cols;
    }
    tiles
}

/// Draw the fault-injection plan of one iteration: one [`PlannedFault`] per sampled
/// SDC event, each targeting a random protected tile, with a pre-drawn private RNG
/// seed so the injected bits are identical no matter which pool thread executes the
/// tile's task (or at which thread count the run executes).
///
/// Equivalent to [`plan_faults_with_mix`] under the inert [`FaultMix`]: every event
/// is a single-strike tile-data fault.
pub fn plan_faults<R: Rng + ?Sized>(
    events: &[SdcEvent],
    tiles: &[Block],
    rng: &mut R,
) -> Vec<PlannedFault> {
    plan_faults_with_mix(events, tiles, rng, &FaultMix::default(), None)
}

/// [`plan_faults`] under the hardened fault model: each sampled event is classified
/// by `mix` into a tile-data strike, a checksum-vector strike, a lookahead-panel
/// strike (when the iteration has a panel, `panel_col`), a four-corner burst, or a
/// deterministic `grid_size × grid_size` multi-strike grid (defeating codes of
/// order `t < grid_size`, absorbed in place by `t ≥ grid_size`), and may be
/// persistent (re-striking on every recomputation attempt).
///
/// Determinism contract: the tile choice and the private seed are drawn for every
/// event exactly as [`plan_faults`] draws them, and the classification draws happen
/// **only when `mix` is not inert** — so an inert mix consumes the RNG stream
/// bit-identically to the pre-recovery planner, keeping seed-pinned baseline runs
/// reproducible.
pub fn plan_faults_with_mix<R: Rng + ?Sized>(
    events: &[SdcEvent],
    tiles: &[Block],
    rng: &mut R,
    mix: &FaultMix,
    panel_col: Option<usize>,
) -> Vec<PlannedFault> {
    events
        .iter()
        .map(|event| {
            let tile = tiles[rng.gen_range(0..tiles.len())];
            let mut fault = PlannedFault::tile(tile.row, tile.col, event.pattern, rng.gen());
            if !mix.is_inert() {
                let class: f64 = rng.gen();
                if class < mix.checksum {
                    fault.target = FaultTarget::Checksum;
                } else if class < mix.checksum + mix.panel {
                    if let Some(col0) = panel_col {
                        // Panel faults are keyed by the panel's column group; the
                        // hook matches them in `after_panel_factor` only.
                        fault.target = FaultTarget::Panel;
                        fault.row = col0;
                        fault.col = col0;
                    }
                } else if class < mix.checksum + mix.panel + mix.burst {
                    fault.target = FaultTarget::Burst;
                } else if class < mix.checksum + mix.panel + mix.burst + mix.grid {
                    // Appended after the existing classes so mixes that predate the
                    // grid pattern consume the RNG stream bit-identically.
                    fault.target = FaultTarget::Grid(mix.grid_size.clamp(1, u32::from(u8::MAX)) as u8);
                }
                fault.strikes = if rng.gen_bool(mix.persistent.clamp(0.0, 1.0)) {
                    u32::MAX
                } else {
                    mix.max_strikes
                };
            }
            fault
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AbftMode;
    use bsr_abft::checksum::ChecksumScheme;
    use bsr_sched::strategy::{BsrConfig, Strategy};

    fn small_cfg(dec: Decomposition, strategy: Strategy) -> RunConfig {
        RunConfig::small(dec, 192, 32, strategy)
    }

    #[test]
    fn fault_free_numeric_runs_are_correct_for_all_decompositions() {
        let strategies = [
            Strategy::Original,
            Strategy::RaceToHalt,
            Strategy::SlackReclamation,
            Strategy::Bsr(BsrConfig::with_ratio(0.25)),
        ];
        for dec in Decomposition::ALL {
            for strategy in strategies {
                let cfg = small_cfg(dec, strategy).with_fault_injection(false);
                let out = run_numeric(cfg).unwrap();
                assert!(out.numerically_correct, "{dec:?} residual {res}", res = out.residual);
                assert_eq!(out.faults_injected, 0);
                assert_eq!(out.report.iterations.len(), 6);
                assert_eq!(out.measured.len(), 6);
                assert!(out.measured_makespan_s() > 0.0);
            }
        }
    }

    #[test]
    fn injected_faults_with_full_abft_are_corrected() {
        // Force the full checksum scheme and a high SDC rate by overclocking aggressively.
        let mut cfg = small_cfg(Decomposition::Lu, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_measured_feedback(false)
            .with_seed(11);
        // Make SDCs possible at the base clock and raise the rate so that the
        // micro-second iterations of this tiny problem still see a handful of events
        // (paper-scale iterations last seconds).
        cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
        cfg.platform.gpu.sdc.one_d_onset = hetero_sim::freq::MHz(1100.0);
        cfg.platform.gpu.sdc.base_rate_per_s = 4.0e4;
        cfg.platform.gpu.sdc.one_d_base_rate_per_s = 4.0e3;
        let out = run_numeric(cfg).unwrap();
        assert!(out.faults_injected > 0, "test needs at least one injected fault");
        assert!(out.verification.total_corrected() > 0);
        assert!(
            out.numerically_correct,
            "full ABFT must repair the factorization (residual {res}, {n} faults)",
            res = out.residual,
            n = out.faults_injected
        );
    }

    #[test]
    fn injected_faults_without_abft_corrupt_the_result() {
        let mut cfg = small_cfg(Decomposition::Lu, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::None))
            .with_measured_feedback(false)
            .with_seed(17);
        cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
        cfg.platform.gpu.sdc.base_rate_per_s = 4.0e5;
        let out = run_numeric(cfg).unwrap();
        assert!(out.faults_injected > 0);
        assert!(
            !out.numerically_correct,
            "uncorrected corruption should break the factorization (residual {res})",
            res = out.residual
        );
        // Injection is simulated corruption, not ABFT work: an unprotected run must
        // report exactly zero checksum cost even though faults were injected.
        assert_eq!(out.checksum_cpu_s, 0.0);
    }

    #[test]
    fn protected_iterations_pay_checksum_cost_without_any_fault() {
        // Forced Full scheme, fault injection off: the ABFT cost must still be charged
        // on every iteration that has a trailing matrix — cost is per protected
        // iteration, not per sampled fault.
        let cfg = small_cfg(Decomposition::Lu, Strategy::Original)
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_fault_injection(false);
        let out = run_numeric(cfg).unwrap();
        assert_eq!(out.faults_injected, 0);
        assert!(out.checksum_cpu_s > 0.0);
        for m in &out.measured {
            let has_trailing =
                !protected_tiles(Decomposition::Lu, 192, 32, m.k).is_empty();
            assert_eq!(
                m.checksum_s > 0.0,
                has_trailing,
                "iteration {} checksum accounting does not match its trailing region",
                m.k
            );
        }
        // The None scheme keeps its zero-cost early out.
        let cfg = small_cfg(Decomposition::Lu, Strategy::Original)
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::None))
            .with_fault_injection(false);
        let out = run_numeric(cfg).unwrap();
        assert_eq!(out.checksum_cpu_s, 0.0);
    }

    #[test]
    fn non_square_and_mismatched_inputs_yield_errors_not_panics() {
        let cfg = RunConfig::small(Decomposition::Lu, 3, 2, Strategy::Original);
        let rect = Matrix::zeros(3, 4);
        assert!(matches!(
            run_numeric_on(cfg.clone(), &rect),
            Err(NumericError::ShapeMismatch { rows: 3, cols: 4, expected: 3 })
        ));
        let wrong_order = Matrix::identity(5);
        let err = run_numeric_on(cfg, &wrong_order).unwrap_err();
        assert!(matches!(err, NumericError::ShapeMismatch { expected: 3, .. }));
        assert!(err.to_string().contains("5x5"));
    }

    #[test]
    fn measured_feedback_shrinks_prediction_error() {
        // With measured feedback the sliding-window predictor observes the host's real
        // durations, so its predictions must track them far better than the analytic
        // model of the simulated GPU does (the analytic-vs-analytic fiction the old
        // driver reported).
        let cfg = RunConfig::small(Decomposition::Lu, 256, 32, Strategy::Original)
            .with_fault_injection(false);
        let out = run_numeric(cfg).unwrap();
        let predictor_err = out.mean_predictor_error().expect("predictions must exist");
        let analytic_err = out.mean_analytic_error().unwrap();
        assert!(
            predictor_err < analytic_err,
            "observed feedback must shrink the prediction error: predictor {predictor_err:.3} \
             vs analytic {analytic_err:.3}"
        );
        // Every iteration after the profiling one carries a prediction.
        for m in &out.measured[1..] {
            assert!(m.predicted_update_s.is_some(), "iteration {} lacks a prediction", m.k);
        }
    }

    #[test]
    fn disabling_feedback_restores_analytic_predictor_records() {
        // With feedback off the numeric run's analytic report must be identical to a
        // pure analytic run of the same configuration (plans see the same predictor).
        let cfg = RunConfig::small(Decomposition::Lu, 192, 32, Strategy::SlackReclamation)
            .with_fault_injection(false)
            .with_measured_feedback(false);
        let analytic = crate::analytic::run(cfg.clone());
        let numeric = run_numeric(cfg).unwrap();
        assert!((analytic.total_time_s - numeric.report.total_time_s).abs() < 1e-12);
        assert!((analytic.total_energy_j() - numeric.report.total_energy_j()).abs() < 1e-9);
    }

    #[test]
    fn tiles_cover_the_trailing_region_exactly_once() {
        // LU iteration 0 protects rows [0, 100) of the trailing columns: the U12 band
        // (rows [0, 32), TRSM output) plus the GEMM rows below it.
        let tiles = protected_tiles(Decomposition::Lu, 100, 32, 0);
        let region = Block::new(0, 32, 100, 68);
        let area: usize = tiles.iter().map(|t| t.len()).sum();
        assert_eq!(area, region.len());
        assert!(tiles.iter().any(|t| t.row == 0 && t.col == 32), "U12 band must be covered");
        assert!(tiles.iter().all(|t| t.col >= 32));
        assert!(tiles.iter().all(|t| t.row + t.rows <= 100 && t.col + t.cols <= 100));
        // Cholesky protects only the staircase the factorization writes.
        let chol = protected_tiles(Decomposition::Cholesky, 96, 32, 0);
        assert!(chol.iter().all(|t| t.row >= t.col));
        assert_eq!(chol.len(), 3, "two diagonal tiles + one below");
        // QR protects from the panel-top row: rows [k·b, (k+1)·b) of the trailing
        // columns become final R entries in iteration k and must stay covered.
        let qr_tiles = protected_tiles(Decomposition::Qr, 96, 32, 1);
        assert!(qr_tiles.iter().any(|t| t.row == 32 && t.col == 64));
        assert!(qr_tiles.iter().all(|t| t.row >= 32 && t.col >= 64));
        // Past the last panel there is nothing to protect.
        assert!(protected_tiles(Decomposition::Lu, 100, 32, 3).is_empty());
    }

    #[test]
    fn dag_runtime_factors_are_bit_identical_to_serial_blocked() {
        // Feedback-off runs execute on the dependency-driven DAG runtime; the factors
        // must still be bit-exact against the serial blocked reference, and the
        // per-iteration record must attribute durations to DAG tasks (the final
        // iteration has no lookahead panel task, so its pd_s is exactly zero).
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let input = bsr_linalg::generate::random_matrix(&mut rng, 96, 96);
        let cfg = RunConfig::small(Decomposition::Lu, 96, 32, Strategy::Original)
            .with_fault_injection(false)
            .with_measured_feedback(false);
        let out = run_numeric_on(cfg, &input).unwrap();
        let reference = lu::lu_blocked(&input, 32).unwrap();
        let NumericFactors::Lu(f) = &out.factors else { panic!("expected LU factors") };
        assert!(f.lu.approx_eq(&reference.lu, 0.0), "DAG factors must match serial bit-exactly");
        assert_eq!(f.pivots, reference.pivots);
        assert_eq!(out.measured.len(), 3);
        assert_eq!(out.measured[2].pd_s, 0.0, "last iteration has no lookahead panel task");
        assert!(out.measured[0].pd_s > 0.0);
        assert!(out.measured[0].update_s > 0.0);
        assert!(out.measured_makespan_s() > 0.0);
    }

    #[test]
    fn mixed_precision_lu_refines_to_f64_accuracy() {
        // Stock clocks under the adaptive scheme, and an overclocked BSR plan with
        // checksums forced off: neither leans on ABFT to converge.
        for (strategy, mode) in [
            (Strategy::Original, AbftMode::Adaptive),
            (Strategy::Bsr(BsrConfig::with_ratio(0.25)), AbftMode::Forced(ChecksumScheme::None)),
        ] {
            let cfg = small_cfg(Decomposition::Lu, strategy)
                .with_abft_mode(mode)
                .with_fault_injection(false)
                .with_precision(Precision::MixedF32);
            let input = generate_input(&cfg);
            let out = run_numeric_on(cfg, &input).unwrap();
            let mixed = out.mixed.expect("mixed runs must carry a refinement record");
            assert!(
                mixed.converged,
                "refinement must reach f64 backward error (η {e:.3e} vs tol {t:.3e})",
                e = mixed.backward_error,
                t = mixed.tol
            );
            assert!(mixed.backward_error <= mixed.tol);
            assert!(
                mixed.refine_iters >= 1,
                "f32 factors cannot hit f64 backward error without at least one sweep"
            );
            assert!(out.numerically_correct);
            // A mixed run computes no factorization residual ...
            assert!(
                out.residual.is_nan(),
                "mixed residual {:e} is not NaN",
                out.residual
            );
            // ... because its f32 factors are only f32-accurate: the residual of their
            // promoted copy sits far above the f64 threshold, proving the refinement —
            // not the factorization — is what earns correctness.
            let NumericFactors::MixedLu(f) = &out.factors else {
                panic!("a mixed LU run must return f32 LU factors");
            };
            let promoted = lu::LuFactors {
                lu: f.lu.promote(),
                pivots: f.pivots.clone(),
            };
            let res = lu_residual(&input, &promoted);
            assert!(
                res > CORRECTNESS_THRESHOLD,
                "f32 factor residual {res:.3e} is implausibly small"
            );
            assert_eq!(out.measured.len(), 6);
            assert!(out.measured.iter().all(|m| m.update_s > 0.0));
            assert!(out.measured_makespan_s() > mixed.solve_seconds);
        }
    }

    #[test]
    fn mixed_precision_cholesky_pays_and_records_checksum_cost() {
        let cfg = small_cfg(Decomposition::Cholesky, Strategy::Original)
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_fault_injection(false)
            .with_precision(Precision::MixedF32);
        let out = run_numeric(cfg).unwrap();
        assert!(out.mixed.unwrap().converged);
        assert!(matches!(out.factors, NumericFactors::MixedCholesky(_)));
        // Full protection over every trailing tile must show up as measured
        // checksum cost, exactly as on the f64 paths.
        assert!(out.checksum_cpu_s > 0.0);
        assert!(out.measured_checksum_fraction() > 0.0);
        assert_eq!(out.faults_injected, 0);
        assert!(out.verification.is_clean_or_corrected());
    }

    #[test]
    fn mixed_precision_qr_is_rejected_structurally() {
        let cfg = small_cfg(Decomposition::Qr, Strategy::Original)
            .with_precision(Precision::MixedF32);
        let err = run_numeric(cfg).unwrap_err();
        assert!(matches!(err, NumericError::MixedUnsupported { dec: Decomposition::Qr }));
        assert!(err.to_string().contains("mixed precision"));
    }

    #[test]
    fn mixed_precision_corrects_injected_faults_and_still_converges() {
        // Same overclocked operating point as the f64 injection test: faults strike
        // the promoted tiles between encode and verify, the f64 checksums correct
        // them (rounded through f32), and refinement must still converge to f64
        // accuracy — the ISSUE's end-to-end mixed-path reliability claim.
        let mut cfg = small_cfg(Decomposition::Lu, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_precision(Precision::MixedF32)
            .with_seed(11);
        cfg.platform.gpu.sdc.fault_free_max = hetero_sim::freq::MHz(1000.0);
        cfg.platform.gpu.sdc.one_d_onset = hetero_sim::freq::MHz(1100.0);
        cfg.platform.gpu.sdc.base_rate_per_s = 4.0e4;
        cfg.platform.gpu.sdc.one_d_base_rate_per_s = 4.0e3;
        let out = run_numeric(cfg).unwrap();
        assert!(out.faults_injected > 0, "test needs at least one injected fault");
        assert!(out.verification.total_corrected() > 0);
        let mixed = out.mixed.unwrap();
        assert!(
            mixed.converged,
            "corrected mixed run must refine to f64 accuracy (η {e:.3e}, {n} faults)",
            e = mixed.backward_error,
            n = out.faults_injected
        );
    }

    #[test]
    fn non_finite_cholesky_pivot_is_a_structured_error_on_every_arm() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let spd = random_spd_matrix(&mut rng, 32);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut input = spd.clone();
            input.set(20, 20, bad);
            for (feedback, precision) in
                [(true, Precision::F64), (false, Precision::F64), (false, Precision::MixedF32)]
            {
                let cfg = RunConfig::small(Decomposition::Cholesky, 32, 8, Strategy::Original)
                    .with_fault_injection(false)
                    .with_measured_feedback(feedback)
                    .with_precision(precision);
                let err = run_numeric_on(cfg, &input).map(|r| r.residual);
                assert!(
                    matches!(
                        err,
                        Err(NumericError::Cholesky(cholesky::CholeskyError::NotPositiveDefinite(20)))
                    ),
                    "pivot {bad}, feedback {feedback}, {precision:?}: got {err:?}"
                );
            }
        }
    }

    #[test]
    fn caller_provided_matrix_is_not_modified() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let input = random_spd_matrix(&mut rng, 96);
        let cfg = RunConfig::small(Decomposition::Cholesky, 96, 32, Strategy::Original)
            .with_fault_injection(false);
        let before = input.clone();
        let out = run_numeric_on(cfg, &input).unwrap();
        assert!(out.numerically_correct);
        assert!(input.approx_eq(&before, 0.0));
        assert!(matches!(out.factors, NumericFactors::Cholesky(_)));
    }
}
