//! Replay of one job through the layer APIs, so that its time can be split by
//! module from outside the program.
//!
//! `JobHandle::run` is one opaque call. The replay makes the same calls the
//! engine makes — `AnalyticDriver::begin_step/finish_step` per iteration, the
//! stepper or DAG driver with the same checksum hook, the residual check, the
//! refinement sweep — each under its own span, and must land within 10 % of the
//! untraced job's time; what it cannot name is `core::numeric`'s own time.
//!
//! It mirrors `core::numeric`'s three engine paths (stepped, DAG, mixed),
//! including the two seed offsets the engine derives its fault-injection and
//! right-hand-side streams from. If the engine changes shape the reconciliation
//! (`trace.replay_unaccounted_frac`) is what shows it.

use crate::dense::Kind;
use crate::drivers::{self, inf_norm, Stepper};
use crate::inputs::derive_seed;
use crate::metrics::Checks;
use crate::span::{SpanId, Tracer};
use bsr_abft::checksum::ChecksumScheme;
use bsr_abft::fused::{FusedTileChecksums, PerIterationChecksums, PlannedFault};
use bsr_abft::mixed::{MixedChecksums, MixedPerIterationChecksums};
use bsr_abft::recover::RecoveryTracker;
use bsr_core::analytic::{AnalyticDriver, ObservedDurations, PendingStep};
use bsr_core::config::{Precision, RunConfig};
use bsr_core::numeric::{generate_input, plan_faults_with_mix, protected_tiles, NumericFactors};
use bsr_linalg::generate::random_matrix;
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::verify::CORRECTNESS_THRESHOLD;
use bsr_linalg::{blas3, lowprec, Trans};
use bsr_sched::workload::Decomposition;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// `core::numeric` seeds its injection planner with `cfg.seed ^ INJECT_STREAM` and
/// the refinement right-hand side with `cfg.seed ^ RHS_STREAM`.
const INJECT_STREAM: u64 = 0x0bad_5eed;
const RHS_STREAM: u64 = 0x00f3_2d0c;
const MAX_REFINE_SWEEPS: usize = 10;

/// Replays per kind; the median run is reported.
const REPLAYS: usize = 3;

/// Self time of replayed jobs by where it was spent, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shares {
    pub generate: f64,
    pub plan: f64,
    pub factor: f64,
    pub checksum: f64,
    pub verify: f64,
    pub solve: f64,
    pub numeric_self: f64,
}

impl Shares {
    pub fn add(&mut self, other: &Shares) {
        self.generate += other.generate;
        self.plan += other.plan;
        self.factor += other.factor;
        self.checksum += other.checksum;
        self.verify += other.verify;
        self.solve += other.solve;
        self.numeric_self += other.numeric_self;
    }

    /// The `job.*_frac` layer metrics: each share of the total.
    pub fn fractions(&self) -> Vec<(String, f64)> {
        let total = self.generate
            + self.plan
            + self.factor
            + self.checksum
            + self.verify
            + self.solve
            + self.numeric_self;
        [
            ("job.generate_frac", self.generate),
            ("job.plan_frac", self.plan),
            ("job.factor_frac", self.factor),
            ("job.checksum_frac", self.checksum),
            ("job.verify_frac", self.verify),
            ("job.solve_frac", self.solve),
            ("job.numeric_self_frac", self.numeric_self),
        ]
        .into_iter()
        .map(|(name, s)| (name.to_string(), if total > 0.0 { s / total } else { 0.0 }))
        .collect()
    }

    /// Sort one job's span self times into shares by span name.
    fn of_job(tr: &Tracer, job: u64) -> Shares {
        let mut s = Shares::default();
        for (name, self_s) in tr.self_time_by_name(Some(job)) {
            match name {
                "generate.input" => s.generate += self_s,
                "analytic.plan" => s.plan += self_s,
                "cholesky.factor" | "lu.factor" | "qr.factor" | "lowprec.factor" => {
                    s.factor += self_s
                }
                "abft.checksum" => s.checksum += self_s,
                "verify.residual" => s.verify += self_s,
                "solve.rhs" | "solve.refine" => s.solve += self_s,
                _ => s.numeric_self += self_s,
            }
        }
        s
    }
}

/// The median replay of one kind.
pub struct Replayed {
    /// The replayed `run` — what reconciles with `JobHandle::run`.
    pub run_s: f64,
    /// The factorization inside it (checksum work included): the raw driver.
    pub factor_s: f64,
    pub shares: Shares,
}

fn factor_span(dec: Decomposition) -> &'static str {
    match dec {
        Decomposition::Cholesky => "cholesky.factor",
        Decomposition::Lu => "lu.factor",
        Decomposition::Qr => "qr.factor",
    }
}

/// Replay `kind`'s job [`REPLAYS`] times under `job` spans and return the replay
/// whose run time is the median.
pub fn replay_kind(kind: &Kind, seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Replayed {
    let cfg = kind.handles[0].cfg();
    let mut runs: Vec<Replayed> = (0..REPLAYS)
        .map(|i| {
            // A job id of its own per replay, outside the range `JobId::fresh` hands out.
            let job = derive_seed(seed, &format!("replay/{:?}/{i}", kind.dec)) | (1 << 63);
            let root = tr.enter("job", job);
            let span = tr.enter("generate.input", job);
            let input = generate_input(cfg);
            tr.exit(span);
            drop(input);
            // Each replay factors another of the cycled inputs, as each round does:
            // a matrix the previous replay left in cache would flatter the replay.
            let input = kind.handles[i % kind.handles.len()].input();

            let run = tr.enter("numeric.run", job);
            let (factors, residual_ok, factor_s) = if cfg.precision == Precision::MixedF32 {
                replay_mixed(cfg, input, tr, job)
            } else if cfg.measured_feedback {
                replay_stepped(cfg, input, tr, job)
            } else {
                replay_dag(cfg, input, tr, job)
            };
            tr.exit(run);
            if let Some(b) = &kind.rhs {
                let span = tr.enter("solve.rhs", job);
                std::hint::black_box(factors.solve(b));
                tr.exit(span);
            }
            tr.exit(root);
            checks.check(residual_ok, || {
                format!("{:?}: replayed job is not numerically correct", kind.dec)
            });
            Replayed {
                run_s: tr.spans()[run].duration_s(),
                factor_s,
                shares: Shares::of_job(tr, job),
            }
        })
        .collect();
    runs.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    runs.swap_remove(REPLAYS / 2)
}

/// Close the factor span and hang the hook's own checksum seconds under it.
fn close_factor(tr: &mut Tracer, span: SpanId, job: u64, checksum_s: f64) -> f64 {
    tr.exit(span);
    if checksum_s > 0.0 {
        tr.record_child(span, "abft.checksum", job, 0.0, checksum_s);
    }
    tr.spans()[span].duration_s()
}

/// The measured-feedback path: plan, step, feed back, one iteration at a time.
fn replay_stepped(
    cfg: &RunConfig,
    input: &Matrix,
    tr: &mut Tracer,
    job: u64,
) -> (NumericFactors, bool, f64) {
    let (dec, b) = (cfg.workload.decomposition, cfg.workload.block);
    let name = factor_span(dec);
    let mut factor_s = 0.0;

    let span = tr.enter("analytic.plan", job);
    let mut driver = AnalyticDriver::new(cfg.clone());
    tr.exit(span);
    let span = tr.enter(name, job);
    let mut stepper = Stepper::new(dec, input, b);
    factor_s += close_factor(tr, span, job, 0.0);

    for k in 0..cfg.workload.iterations() {
        let span = tr.enter("analytic.plan", job);
        let pending = driver.begin_step(k);
        tr.exit(span);
        let span = tr.enter(name, job);
        let timing = stepper.step(k);
        factor_s += close_factor(tr, span, job, 0.0);
        let span = tr.enter("analytic.plan", job);
        let observed = ObservedDurations {
            pd_s: timing.panel_s,
            update_s: timing.update_s,
        };
        driver.finish_step(pending, Some(&observed));
        tr.exit(span);
    }

    let span = tr.enter("verify.residual", job);
    let factors = stepper.into_factors();
    let residual = drivers::residual(input, &factors);
    tr.exit(span);
    let span = tr.enter("analytic.plan", job);
    std::hint::black_box(driver.into_report());
    tr.exit(span);
    (factors, residual < CORRECTNESS_THRESHOLD, factor_s)
}

/// The faults the engine plans for iteration `k`: one per SDC event the pending
/// step sampled, over the protected tiles that pass `offered`.
fn plan_faults(
    cfg: &RunConfig,
    pending: &PendingStep,
    k: usize,
    rng: &mut ChaCha8Rng,
    offered: impl Fn(&Block) -> bool,
) -> Vec<PlannedFault> {
    let (n, b) = (cfg.workload.n, cfg.workload.block);
    let tiles: Vec<Block> = protected_tiles(cfg.workload.decomposition, n, b, k)
        .into_iter()
        .filter(offered)
        .collect();
    if tiles.is_empty() {
        return Vec::new();
    }
    let panel_col = ((k + 1) * b < n).then(|| (k + 1) * b);
    plan_faults_with_mix(
        &pending.trace().sdc_events,
        &tiles,
        rng,
        &cfg.fault_mix,
        panel_col,
    )
}

/// The feedback-off path: plan every iteration and its faults up front, then one
/// whole-factorization DAG run with the checksum hooks riding the tasks.
fn replay_dag(
    cfg: &RunConfig,
    input: &Matrix,
    tr: &mut Tracer,
    job: u64,
) -> (NumericFactors, bool, f64) {
    let (dec, b) = (cfg.workload.decomposition, cfg.workload.block);

    let span = tr.enter("analytic.plan", job);
    let mut inject_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ INJECT_STREAM);
    let mut driver = AnalyticDriver::new(cfg.clone());
    let tracker = cfg
        .recovery
        .enabled
        .then(|| Arc::new(RecoveryTracker::new(cfg.recovery)));
    let hooks: Vec<FusedTileChecksums> = (0..cfg.workload.iterations())
        .map(|k| {
            let pending = driver.begin_step(k);
            let scheme = pending.trace().abft;
            let faults = plan_faults(cfg, &pending, k, &mut inject_rng, |_| true);
            driver.finish_step(pending, None);
            let hook = FusedTileChecksums::with_faults(scheme, b, faults);
            match &tracker {
                Some(t) => hook.with_recovery(Arc::clone(t)),
                None => hook,
            }
        })
        .collect();
    let hook = PerIterationChecksums::new(hooks);
    tr.exit(span);

    let span = tr.enter(factor_span(dec), job);
    let factors = drivers::dag_with(dec, input, b, &hook);
    let checksum_s = (0..hook.iterations())
        .map(|k| hook.hook(k).checksum_seconds())
        .sum();
    let factor_s = close_factor(tr, span, job, checksum_s);

    let span = tr.enter("verify.residual", job);
    let residual = drivers::residual(input, &factors);
    tr.exit(span);
    let span = tr.enter("analytic.plan", job);
    std::hint::black_box(driver.into_report());
    tr.exit(span);
    // The benchmark's fault recipe is healed in place; a run that needed the
    // replay rung is not one this replay reproduces.
    let healed = tracker.is_none_or(|t| !t.has_unresolved() && !t.is_suspect());
    let ok = healed && hook.outcome().uncorrectable == 0 && residual < CORRECTNESS_THRESHOLD;
    (factors, ok, factor_s)
}

/// The mixed path: f32 factorization under f64 checksum hooks, the residual of
/// the promoted factors, then f64 iterative refinement.
fn replay_mixed(
    cfg: &RunConfig,
    input: &Matrix,
    tr: &mut Tracer,
    job: u64,
) -> (NumericFactors, bool, f64) {
    let (dec, n, b) = (
        cfg.workload.decomposition,
        cfg.workload.n,
        cfg.workload.block,
    );

    let span = tr.enter("analytic.plan", job);
    let mut inject_rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ INJECT_STREAM);
    let mut driver = AnalyticDriver::new(cfg.clone());
    let hooks: Vec<MixedChecksums> = (0..cfg.workload.iterations())
        .map(|k| {
            let pending = driver.begin_step(k);
            let scheme: ChecksumScheme = pending.trace().abft;
            // The f32 drivers offer the hook only the trailing square below the panel.
            let faults = plan_faults(cfg, &pending, k, &mut inject_rng, |t| t.row >= (k + 1) * b);
            driver.finish_step(pending, None);
            MixedChecksums::with_faults(scheme, b, faults)
        })
        .collect();
    let hook = MixedPerIterationChecksums::new(hooks);
    tr.exit(span);

    let input_f32 = input.demote();
    let span = tr.enter("lowprec.factor", job);
    let factors = match dec {
        Decomposition::Lu => NumericFactors::MixedLu(
            lowprec::lu_blocked_f32(&input_f32, b, &hook).expect("input is non-singular"),
        ),
        Decomposition::Cholesky => {
            let mut m = input_f32;
            lowprec::cholesky_blocked_f32(&mut m, b, &hook).expect("input is SPD");
            NumericFactors::MixedCholesky(m)
        }
        Decomposition::Qr => unreachable!("the engine offers no f32 QR"),
    };
    let factor_s = close_factor(tr, span, job, hook.checksum_seconds());

    let span = tr.enter("verify.residual", job);
    let residual = drivers::residual(input, &factors);
    std::hint::black_box(residual);
    tr.exit(span);

    let span = tr.enter("solve.refine", job);
    let rhs = random_matrix(&mut ChaCha8Rng::seed_from_u64(cfg.seed ^ RHS_STREAM), n, 1);
    let (a_norm, b_norm) = (inf_norm(input), inf_norm(&rhs));
    let tol = 4.0 * n as f64 * f64::EPSILON;
    let mut x = factors.solve(&rhs).expect("mixed factors solve");
    let mut converged = false;
    for sweep in 0..=MAX_REFINE_SWEEPS {
        let ax = blas3::gemv(input, Trans::No, &x);
        let mut r = rhs.clone();
        for (ri, &axi) in r.data_mut().iter_mut().zip(ax.data()) {
            *ri -= axi;
        }
        let backward_error = inf_norm(&r) / (a_norm * inf_norm(&x) + b_norm);
        converged = backward_error <= tol;
        if converged || !backward_error.is_finite() || sweep == MAX_REFINE_SWEEPS {
            break;
        }
        let d = factors.solve(&r).expect("mixed factors solve");
        for (xi, &di) in x.data_mut().iter_mut().zip(d.data()) {
            *xi += di;
        }
    }
    tr.exit(span);
    let span = tr.enter("analytic.plan", job);
    std::hint::black_box(driver.into_report());
    tr.exit(span);
    (
        factors,
        converged && hook.outcome().uncorrectable == 0,
        factor_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{setup, Flavor};
    use crate::inputs::Scale;

    #[test]
    fn replays_are_correct_and_their_self_times_add_up_to_the_job() {
        for flavor in [Flavor::Bare, Flavor::Protected, Flavor::MixedSolve] {
            let mut checks = Checks::default();
            let ready = setup(flavor, Scale::SMOKE, 13, &mut checks);
            let mut tr = Tracer::on();
            for kind in &ready.kinds {
                let r = replay_kind(kind, 13, &mut tr, &mut checks);
                assert!(
                    r.factor_s > 0.0 && r.factor_s < r.run_s,
                    "{flavor:?} {:?}",
                    kind.dec
                );
                let s = r.shares;
                let total = s.generate
                    + s.plan
                    + s.factor
                    + s.checksum
                    + s.verify
                    + s.solve
                    + s.numeric_self;
                assert!(
                    total >= r.run_s,
                    "{flavor:?} {:?}: {total} < {}",
                    kind.dec,
                    r.run_s
                );
                assert_eq!(
                    s.checksum > 0.0,
                    flavor == Flavor::Protected,
                    "{flavor:?} {:?}",
                    kind.dec
                );
                assert_eq!(
                    s.solve > 0.0,
                    flavor == Flavor::MixedSolve && kind.dec != Decomposition::Qr
                );
            }
            assert_eq!(checks.failed, 0, "{flavor:?}: {:?}", checks.notes);
            let fr = Shares::default().fractions();
            assert!(fr.iter().all(|(_, f)| *f == 0.0));
        }
    }
}
