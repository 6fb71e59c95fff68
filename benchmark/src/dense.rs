//! The three dense workloads — `dense_bare`, `dense_protected`, `mixed_solve` —
//! are one closed loop with one job in flight: rounds of {Cholesky, LU, QR} at
//! n = 1024, b = 128, cycling four pre-generated inputs per kind, timing
//! `JobHandle::run()` (plus `factors.solve(&b)` on `mixed_solve`) on handles built
//! in set-up. They differ only in the `RunConfig` each kind runs, i.e. in which
//! layers above `bsr-linalg` do work.

use crate::drivers::inf_norm;
use crate::inputs::{self, derive_seed, kind_name, Scale};
use crate::json::{self, Value};
use crate::metrics::{Checks, Metric, Outcome};
use crate::replay;
use crate::span::Tracer;
use crate::stats::{self, Summary};
use crate::{paper, Args};
use bsr_core::config::{Precision, RunConfig};
use bsr_core::numeric::{NumericError, NumericFactors, NumericRunReport};
use bsr_core::service::JobHandle;
use bsr_linalg::blas3::{self, Trans};
use bsr_linalg::dag;
use bsr_linalg::matrix::Matrix;
use bsr_linalg::verify::{qr_residual, CORRECTNESS_THRESHOLD};
use bsr_sched::workload::Decomposition;
use std::time::Instant;

/// Which configuration the three kinds run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    Bare,
    Protected,
    MixedSolve,
}

impl Flavor {
    fn cfg(self, dec: Decomposition, scale: Scale, seed: u64) -> RunConfig {
        match self {
            Flavor::Bare => inputs::bare_cfg(dec, scale, seed),
            Flavor::Protected => inputs::protected_cfg(dec, scale, seed),
            Flavor::MixedSolve => inputs::mixed_cfg(dec, scale, seed),
        }
    }
}

/// Inputs cycled per kind, so a round does not re-factor the matrix the previous
/// round left in cache.
const INPUTS_PER_KIND: usize = 4;
/// Right-hand sides of `mixed_solve`'s solve.
const RHS_COLS: usize = 8;
/// Untimed rounds at the end of every set-up.
const WARMUP_ROUNDS: usize = 3;
/// The measured region never ends on fewer rounds than this, whatever `--seconds`.
const MIN_ROUNDS: usize = 5;

/// One kind's jobs: a fixed config (and so a fixed fault schedule) on each of the
/// cycled inputs.
pub struct Kind {
    pub dec: Decomposition,
    pub handles: Vec<JobHandle>,
    /// Right-hand sides the timed job solves for after factoring (`mixed_solve`).
    pub rhs: Option<Matrix>,
}

/// A workload after set-up: handles built, inputs resident, caches warm.
pub struct Ready {
    pub flavor: Flavor,
    pub kinds: Vec<Kind>,
}

/// One timed job.
pub struct JobSample {
    /// `JobHandle::run()` alone.
    pub run_s: f64,
    /// The timed call of the workload: `run()` plus the solve where there is one.
    pub total_s: f64,
    pub report: Result<NumericRunReport, NumericError>,
    pub solution: Option<Matrix>,
}

/// Run one job of `kind` on its `slot`-th input.
pub fn timed_job(kind: &Kind, slot: usize, tr: &mut Tracer) -> JobSample {
    let handle = &kind.handles[slot % kind.handles.len()];
    let id = handle.id().as_u64();
    let job = tr.enter("job", id);
    let t0 = Instant::now();
    let run = tr.enter("numeric.run", id);
    let report = handle.run();
    tr.exit(run);
    let run_s = t0.elapsed().as_secs_f64();
    let solution = match (&report, &kind.rhs) {
        (Ok(rep), Some(b)) => {
            let span = tr.enter("solve.rhs", id);
            let x = rep.factors.solve(b);
            tr.exit(span);
            x
        }
        _ => None,
    };
    let total_s = t0.elapsed().as_secs_f64();
    tr.exit(job);
    JobSample {
        run_s,
        total_s,
        report,
        solution,
    }
}

/// The per-job correctness rules, applied outside the timed call.
fn check_job(flavor: Flavor, kind: &Kind, sample: &JobSample, checks: &mut Checks) {
    let name = kind_name(kind.dec);
    let rep = match &sample.report {
        Ok(rep) => rep,
        Err(e) => return checks.check(false, || format!("{name}: job failed: {e}")),
    };
    let mut ok = rep.numerically_correct && rep.verification.uncorrectable == 0;
    let mut why = format!(
        "{name}: correct={} residual={:.2e} uncorrectable={}",
        rep.numerically_correct, rep.residual, rep.verification.uncorrectable
    );
    if let Some(m) = &rep.mixed {
        ok &= m.converged && m.backward_error <= m.tol;
        ok &= sample
            .solution
            .as_ref()
            .is_some_and(|x| x.data().iter().all(|v| v.is_finite()));
        why += &format!(
            " converged={} backward_error={:.2e} tol={:.2e}",
            m.converged, m.backward_error, m.tol
        );
    }
    if flavor == Flavor::Protected {
        // Vacuity guard: a protected job that met no fault measured nothing the
        // bare job does not, and one whose faults were not all healed is wrong.
        let healed = rep.verification.total_corrected();
        ok &= rep.faults_injected >= 1 && healed >= 1;
        why += &format!(
            " faults_injected={} corrected={healed}",
            rep.faults_injected
        );
    }
    checks.check(ok, || why);
}

/// Normwise backward error `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of a solve.
fn backward_error(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    let ax = blas3::gemm(a, Trans::No, x, Trans::No);
    inf_norm(&b.sub(&ax)) / (inf_norm(a) * inf_norm(x) + inf_norm(b))
}

/// One check per kind that does not go through the engine's own residual: solve
/// against fresh right-hand sides and measure the backward error (QR, which has
/// no solve, is checked by its factorization residual).
pub fn independent_check(handle: &JobHandle, seed: u64, checks: &mut Checks) {
    let name = kind_name(handle.cfg().workload.decomposition);
    let rep = match handle.run() {
        Ok(rep) => rep,
        Err(e) => return checks.check(false, || format!("{name}: set-up job failed: {e}")),
    };
    let n = handle.input().rows();
    let (err, limit) = match &rep.factors {
        NumericFactors::Qr(f) => (qr_residual(handle.input(), f), CORRECTNESS_THRESHOLD),
        factors => {
            let b = inputs::rhs(n, 2, derive_seed(seed, "check-rhs"));
            let x = factors.solve(&b).expect("LU and Cholesky factors solve");
            // One f32 preconditioner sweep is f32-accurate; f64 factors are f64-accurate.
            let eps = if handle.cfg().precision == Precision::MixedF32 {
                f64::from(f32::EPSILON)
            } else {
                f64::EPSILON
            };
            (backward_error(handle.input(), &x, &b), 8.0 * n as f64 * eps)
        }
    };
    checks.check(err <= limit, || {
        format!("{name}: independent check {err:.3e} > {limit:.3e}")
    });
}

/// Set-up: generate every input, build the handles, check one job per kind
/// independently, and run the warm-up rounds.
pub fn setup(flavor: Flavor, scale: Scale, seed: u64, checks: &mut Checks) -> Ready {
    let kinds: Vec<Kind> = Decomposition::ALL
        .iter()
        .map(|&dec| {
            let name = kind_name(dec);
            // One job seed per kind: every input of a kind meets the same fault schedule.
            let cfg = flavor.cfg(dec, scale, derive_seed(seed, &format!("job/{name}")));
            let handles = (0..INPUTS_PER_KIND)
                .map(|slot| {
                    let input =
                        inputs::input_for(&cfg, derive_seed(seed, &format!("input/{name}/{slot}")));
                    JobHandle::solo(cfg.clone(), input).expect("generated inputs are n × n")
                })
                .collect();
            // QR factors offer no solve.
            let rhs = (flavor == Flavor::MixedSolve && dec != Decomposition::Qr)
                .then(|| inputs::rhs(scale.n, RHS_COLS, derive_seed(seed, &format!("rhs/{name}"))));
            Kind { dec, handles, rhs }
        })
        .collect();
    let ready = Ready { flavor, kinds };
    for kind in &ready.kinds {
        independent_check(&kind.handles[0], seed, checks);
    }
    for round in 0..WARMUP_ROUNDS {
        for kind in &ready.kinds {
            let sample = timed_job(kind, round + 1, &mut Tracer::off());
            check_job(flavor, kind, &sample, checks);
        }
    }
    ready
}

/// What the measured region collected.
#[derive(Default)]
pub struct Samples {
    /// Timed-call seconds per kind, in `Decomposition::ALL` order.
    pub total_s: [Vec<f64>; 3],
    /// `run()` seconds per kind.
    pub run_s: [Vec<f64>; 3],
    /// Sum of the round's three timed calls.
    pub round_s: Vec<f64>,
    /// Per kind, per job: fused checksum share, measured ÷ modelled makespan,
    /// refinement sweeps and seconds.
    pub checksum_frac: [Vec<f64>; 3],
    pub makespan_ratio: [Vec<f64>; 3],
    pub refine_iters: Vec<f64>,
    pub refine_solve_s: Vec<f64>,
    /// Faults injected / corrected in the last round (the schedule is fixed per
    /// kind, so every round reads the same).
    pub faults_injected: u64,
    pub faults_corrected: u64,
    /// Tasks of the LU job's graph when it ran on the DAG runtime.
    pub lu_dag_tasks: u64,
}

/// One round: a job of each kind, checked after its timed call.
fn round(ready: &Ready, slot: usize, tr: &mut Tracer, checks: &mut Checks, s: &mut Samples) {
    let mut round_s = 0.0;
    let (mut injected, mut corrected) = (0, 0);
    for (i, kind) in ready.kinds.iter().enumerate() {
        let sample = timed_job(kind, slot, tr);
        check_job(ready.flavor, kind, &sample, checks);
        round_s += sample.total_s;
        s.total_s[i].push(sample.total_s);
        s.run_s[i].push(sample.run_s);
        if let Ok(rep) = &sample.report {
            s.checksum_frac[i].push(rep.measured_checksum_fraction());
            s.makespan_ratio[i].push(rep.measured_makespan_s() / rep.report.total_time_s);
            if let Some(m) = &rep.mixed {
                s.refine_iters.push(m.refine_iters as f64);
                s.refine_solve_s.push(m.solve_seconds);
            }
            injected += rep.faults_injected as u64;
            corrected += rep.verification.total_corrected() as u64;
        }
        if kind.dec == Decomposition::Lu {
            let id = kind.handles[slot % kind.handles.len()].id().as_u64();
            s.lu_dag_tasks = dag::last_run_stats_for(id).map_or(0, |st| st.tasks as u64);
        }
    }
    s.round_s.push(round_s);
    s.faults_injected = injected;
    s.faults_corrected = corrected;
}

/// Closed loop for `seconds`, ending on a whole round.
pub fn measure(ready: &Ready, seconds: f64, tr: &mut Tracer, checks: &mut Checks) -> Samples {
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        round(ready, rounds, tr, checks, &mut s);
        rounds += 1;
    }
    s
}

/// Run one dense workload end to end and hand back its metrics.
pub fn run(flavor: Flavor, args: &Args) -> Outcome {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let mut checks = Checks::default();
    if args.trace {
        return traced(flavor, scale, args, checks);
    }
    let (ready, setup_s) = crate::timed_setups(|| setup(flavor, scale, args.seed, &mut checks));
    let s = measure(&ready, args.seconds, &mut Tracer::off(), &mut checks);

    let mut out = Outcome::default();
    out.metrics.push(Metric::timing("setup_s", setup_s));
    let mut gflops = Vec::new();
    for (i, kind) in ready.kinds.iter().enumerate() {
        let name = kind_name(kind.dec);
        let summary = Summary::of(&s.total_s[i]);
        out.metrics
            .push(Metric::timing(&format!("{name}_s_p50"), summary));
        let rate = kind.dec.total_flops(scale.n) / stats::median(&s.run_s[i]) / 1e9;
        gflops.push((name, json::num(rate)));
    }
    let rates: Vec<f64> = s
        .round_s
        .iter()
        .map(|r| ready.kinds.len() as f64 / r)
        .collect();
    out.metrics
        .push(Metric::timing("jobs_per_s", Summary::of(&rates)));
    let pooled: Vec<f64> = s.total_s.iter().flatten().copied().collect();
    out.metrics
        .push(Metric::timing("latency_s_p50", Summary::of(&pooled)));
    out.metrics
        .extend(crate::headline_metrics(&paper::model_headline(
            derive_seed(args.seed, "paper"),
        )));
    out.detail = vec![
        ("n".to_string(), json::int(scale.n as u64)),
        ("block".to_string(), json::int(scale.block as u64)),
        ("rounds".to_string(), json::int(s.round_s.len() as u64)),
        ("gflops".to_string(), json::obj(gflops)),
        ("counts".to_string(), counts(&s)),
    ];
    out.checks = checks;
    out
}

/// Counts that must repeat exactly for a given seed.
fn counts(s: &Samples) -> Value {
    json::obj(vec![
        ("abft.faults_injected", json::int(s.faults_injected)),
        ("abft.faults_corrected", json::int(s.faults_corrected)),
        ("dag.lu_tasks", json::int(s.lu_dag_tasks)),
    ])
}

/// The traced run: the same rounds with spans on every other round (so both
/// halves of the overhead comparison see the same machine), then one job per
/// kind replayed through the layer APIs so self time lands on a module.
fn traced(flavor: Flavor, scale: Scale, args: &Args, mut checks: Checks) -> Outcome {
    let ready = setup(flavor, scale, args.seed, &mut checks);
    let mut tr = Tracer::on();
    let (mut on, mut off) = (Samples::default(), Samples::default());
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 2 * MIN_ROUNDS || t0.elapsed().as_secs_f64() < args.seconds * crate::TRACED_SHARE
    {
        let traced_round = rounds % 2 == 0;
        tr.set_on(traced_round);
        round(
            &ready,
            rounds / 2,
            &mut tr,
            &mut checks,
            if traced_round { &mut on } else { &mut off },
        );
        rounds += 1;
    }
    tr.set_on(true);

    let mut layer: Vec<(String, f64)> = Vec::new();
    let overhead = stats::median(&on.round_s) / stats::median(&off.round_s) - 1.0;
    layer.push(("trace.overhead_frac".to_string(), overhead));
    layer.push((
        "abft.faults_injected".to_string(),
        on.faults_injected as f64,
    ));
    layer.push((
        "abft.faults_corrected".to_string(),
        on.faults_corrected as f64,
    ));
    if !on.refine_iters.is_empty() {
        layer.push((
            "numeric.refine_iters".to_string(),
            stats::median(&on.refine_iters),
        ));
        layer.push((
            "numeric.refine_solve_s".to_string(),
            stats::median(&on.refine_solve_s),
        ));
    }

    let mut shares = replay::Shares::default();
    let mut unaccounted: f64 = 0.0;
    for (i, kind) in ready.kinds.iter().enumerate() {
        let name = kind_name(kind.dec);
        layer.push((
            format!("numeric.checksum_frac_{name}"),
            stats::median(&on.checksum_frac[i]),
        ));
        layer.push((
            format!("numeric.model_makespan_ratio_{name}"),
            stats::median(&on.makespan_ratio[i]),
        ));
        let replayed = replay::replay_kind(kind, args.seed, &mut tr, &mut checks);
        let job_run_s = stats::median(&off.run_s[i]);
        layer.push((
            format!("numeric.{name}_overhead_frac"),
            1.0 - replayed.factor_s / job_run_s,
        ));
        unaccounted = unaccounted.max((replayed.run_s - job_run_s).abs() / job_run_s);
        eprintln!(
            "  replay {name}: run {:.4} s against the job's {job_run_s:.4} s, factorization {:.4} s",
            replayed.run_s, replayed.factor_s
        );
        shares.add(&replayed.shares);
        // What the real run takes beyond the replayed calls is the engine's own.
        shares.numeric_self += (job_run_s - replayed.run_s).max(0.0);
    }
    layer.push(("trace.replay_unaccounted_frac".to_string(), unaccounted));
    layer.extend(shares.fractions());

    crate::write_trace(&tr, args);
    Outcome {
        layer,
        checks,
        detail: vec![("counts".to_string(), counts(&on))],
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(flavor: Flavor, seed: u64) -> (Samples, Checks) {
        let mut checks = Checks::default();
        let ready = setup(flavor, Scale::SMOKE, seed, &mut checks);
        let s = measure(&ready, 0.0, &mut Tracer::off(), &mut checks);
        (s, checks)
    }

    #[test]
    fn bare_jobs_are_correct_and_meet_no_abft_work() {
        let (s, checks) = short(Flavor::Bare, 13);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        // 3 independent checks + (3 warm-up + 5 measured rounds) × 3 jobs.
        assert_eq!(checks.attempted, 3 + 8 * 3);
        assert_eq!(s.round_s.len(), MIN_ROUNDS);
        assert_eq!(
            (s.faults_injected, s.faults_corrected, s.lu_dag_tasks),
            (0, 0, 0)
        );
        assert!(s.checksum_frac.iter().flatten().all(|&f| f == 0.0));
    }

    #[test]
    fn protected_counts_repeat_exactly_for_a_seed() {
        let (a, checks) = short(Flavor::Protected, 13);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        let (b, _) = short(Flavor::Protected, 13);
        assert!(a.faults_injected >= 3, "every kind must meet a fault");
        assert_eq!(
            (a.faults_injected, a.faults_corrected, a.lu_dag_tasks),
            (b.faults_injected, b.faults_corrected, b.lu_dag_tasks)
        );
        assert!(a.lu_dag_tasks > 0);
        assert!(a.checksum_frac.iter().flatten().all(|&f| f > 0.0));
    }

    #[test]
    fn mixed_jobs_converge_and_solve() {
        let (s, checks) = short(Flavor::MixedSolve, 13);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        // Cholesky and LU refine; QR runs f64.
        assert_eq!(s.refine_iters.len(), 2 * MIN_ROUNDS);
        assert!(s.total_s[0].iter().zip(&s.run_s[0]).all(|(t, r)| t > r));
    }

    #[test]
    fn a_wrong_answer_is_counted_as_a_failed_operation() {
        let mut checks = Checks::default();
        let ready = setup(Flavor::MixedSolve, Scale::SMOKE, 13, &mut checks);
        let mut sample = timed_job(&ready.kinds[1], 0, &mut Tracer::off());
        sample.solution = None;
        let before = checks.failed;
        check_job(Flavor::MixedSolve, &ready.kinds[1], &sample, &mut checks);
        assert_eq!(checks.failed, before + 1);
    }
}
