//! `service_small`: the factorization service under a stream of small jobs, where
//! per-job fixed cost (offer, batch, fleet split, input generation, plan, verify,
//! report) dominates and the kernels do little.
//!
//! Two phases alternate for the length of the run. **Closed** episodes release
//! every job at once (`realtime = false`), so the two workers pull as fast as they
//! finish: jobs ÷ wall is the drain capacity. **Open** episodes pace Poisson
//! arrivals at a fixed 400 jobs/s — about a third of the drain capacity, well
//! below the knee, so latency reads per-job cost and not queueing amplification —
//! and time every job from the moment it was *due*, not from when the submitter
//! got round to it.

use crate::dense;
use crate::inputs::{derive_seed, kind_name};
use crate::json;
use crate::metrics::{Checks, Metric, Outcome};
use crate::span::Tracer;
use crate::stats::{self, median_of_episodes, percentile, Summary};
use crate::{paper, Args};
use bsr_core::config::{Precision, RunConfig};
use bsr_core::queue::{AdmissionConfig, JobClass};
use bsr_core::service::{run_service, JobHandle, JobSpec, ServiceConfig, ServiceReport};
use bsr_sched::strategy::{BsrConfig, Strategy};
use bsr_sched::workload::Decomposition;
use hetero_sim::arrival::PoissonArrivals;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const SIZES: [usize; 4] = [96, 128, 192, 256];
const BLOCK: usize = 32;
const WORKERS: usize = 2;
/// Open-loop arrival rate, jobs/s. Fixed, not derived from the measured
/// capacity: a rate that moved with the machine would move the metric with it.
const OPEN_RATE_PER_S: f64 = 400.0;
/// The measured region never ends on fewer closed + open episode pairs than this.
const MIN_PAIRS: usize = 3;

/// Jobs per episode.
#[derive(Debug, Clone, Copy)]
struct Counts {
    closed: usize,
    open: usize,
}

const FULL: Counts = Counts {
    closed: 720,
    open: 400,
};
const SMOKE: Counts = Counts {
    closed: 72,
    open: 40,
};

/// The job stream: sizes, kinds, precision and class cycle with coprime periods,
/// so every episode holds the same work whatever the seed; only the matrices the
/// jobs factor come from the seed.
fn specs(count: usize, seed: u64) -> Vec<JobSpec> {
    (0..count)
        .map(|i| {
            let dec = Decomposition::ALL[i % 3];
            let mixed = i % 2 == 1 && dec != Decomposition::Qr;
            // One job in four is latency class, spread over every size and kind.
            let class = if matches!(i % 12, 0 | 5 | 10) {
                JobClass::Latency
            } else {
                JobClass::Throughput
            };
            let cfg = RunConfig::small(
                dec,
                SIZES[i % 4],
                BLOCK,
                Strategy::Bsr(BsrConfig::default()),
            )
            .with_measured_feedback(false)
            .with_fault_injection(false)
            .with_precision(if mixed {
                Precision::MixedF32
            } else {
                Precision::F64
            })
            .with_seed(derive_seed(seed, &format!("service/{i}")));
            JobSpec { cfg, class }
        })
        .collect()
}

/// `arrival_seed` keys the episode's Poisson trace. Every open episode of a run
/// draws its own, so the run's median is over several traffic traces and not a
/// property of one burst pattern.
fn service_cfg(jobs: usize, open: bool, arrival_seed: u64) -> ServiceConfig {
    ServiceConfig {
        // Capacity covers the whole episode: nothing this workload offers is refused.
        admission: AdmissionConfig {
            capacity: jobs,
            ..AdmissionConfig::default()
        },
        workers: WORKERS,
        arrival_rate_per_s: OPEN_RATE_PER_S,
        arrival_seed,
        realtime: open,
        keep_reports: false,
        ..ServiceConfig::default()
    }
}

/// Latency from the due arrival offset, and how late the generator submitted, for
/// every job of an open episode. The service hands out `JobId`s in submission
/// order, so the job with the k-th smallest id is the one that was due at
/// `due[k]`. `jobs` holds `(id, arrival_s, latency_s)`.
pub fn latencies_from_due(mut jobs: Vec<(u64, f64, f64)>, due: &[f64]) -> Vec<(f64, f64)> {
    assert_eq!(jobs.len(), due.len(), "one due offset per completed job");
    jobs.sort_by_key(|j| j.0);
    jobs.iter()
        .zip(due)
        .map(|(&(_, arrival_s, latency_s), &due_s)| {
            (arrival_s + latency_s - due_s, arrival_s - due_s)
        })
        .collect()
}

/// What one episode yields.
struct Episode {
    jobs: usize,
    wall_s: f64,
    /// Mean engine seconds per kind, `Decomposition::ALL` order.
    kind_run_s: [f64; 3],
    mean_run_s: f64,
    run_s_p50: f64,
    queue_wait_s_p50: f64,
    batches: usize,
    rejected: usize,
    /// Open episodes only, sorted ascending: latency from due, generator lateness.
    latency_s: Vec<f64>,
    late_s: Vec<f64>,
}

fn episode(
    specs: &[JobSpec],
    open: bool,
    arrival_seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Episode {
    let cfg = service_cfg(specs.len(), open, arrival_seed);
    let span = tr.enter(
        if open {
            "service.open_episode"
        } else {
            "service.closed_episode"
        },
        0,
    );
    let report: ServiceReport = run_service(&cfg, specs.to_vec());
    tr.exit(span);
    let jobs = specs.len();
    // A job that was refused, lost or came back anything but clean is a failed operation.
    let not_clean = jobs - report.clean().min(jobs);
    checks.tally(jobs as u64, not_clean as u64, || {
        format!(
            "service episode: {} of {jobs} clean, {} rejected, {} silent corruptions",
            report.clean(),
            report.rejected,
            report.silent_corruptions()
        )
    });

    let mut kind_run_s = [0.0; 3];
    for (i, dec) in Decomposition::ALL.into_iter().enumerate() {
        let runs: Vec<f64> = report
            .outcomes
            .iter()
            .filter(|o| o.effective_cfg.workload.decomposition == dec)
            .map(|o| o.run_s)
            .collect();
        kind_run_s[i] = stats::mean(&runs);
    }
    let run_s: Vec<f64> = report.outcomes.iter().map(|o| o.run_s).collect();
    let waits: Vec<f64> = report.outcomes.iter().map(|o| o.queue_wait_s).collect();
    let batches = report
        .outcomes
        .iter()
        .map(|o| o.batch)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let (mut latency_s, mut late_s) = (Vec::new(), Vec::new());
    if open && report.outcomes.len() == jobs {
        let due = PoissonArrivals::new(
            ChaCha8Rng::seed_from_u64(cfg.arrival_seed),
            cfg.arrival_rate_per_s,
        )
        .take_offsets(jobs);
        let timed = report
            .outcomes
            .iter()
            .map(|o| (o.id.as_u64(), o.arrival_s, o.latency_s))
            .collect();
        (latency_s, late_s) = latencies_from_due(timed, &due).into_iter().unzip();
        latency_s.sort_by(f64::total_cmp);
        late_s.sort_by(f64::total_cmp);
    }
    for o in &report.outcomes {
        let id = o.id.as_u64();
        let job = tr.record_child(span, "service.job", id, o.arrival_s, o.latency_s);
        tr.record_child(job, "queue.wait", id, 0.0, o.queue_wait_s);
        tr.record_child(job, "numeric.run", id, o.latency_s - o.run_s, o.run_s);
    }
    Episode {
        jobs,
        wall_s: report.wall_s,
        kind_run_s,
        mean_run_s: stats::mean(&run_s),
        run_s_p50: stats::median(&run_s),
        queue_wait_s_p50: stats::median(&waits),
        batches,
        rejected: report.rejected,
        latency_s,
        late_s,
    }
}

/// The job stream after set-up. An open episode runs a prefix of what a closed
/// episode runs.
struct Ready {
    specs: Vec<JobSpec>,
    counts: Counts,
}

impl Ready {
    fn stream(&self, open: bool) -> &[JobSpec] {
        &self.specs[..if open {
            self.counts.open
        } else {
            self.counts.closed
        }]
    }
}

/// Set-up: build the job streams, check one job of each kind independently at
/// the largest size, and run untimed episodes of both phases.
fn setup(counts: Counts, seed: u64, checks: &mut Checks) -> Ready {
    let ready = Ready {
        specs: specs(counts.closed.max(counts.open), seed),
        counts,
    };
    for dec in Decomposition::ALL {
        let spec = ready
            .specs
            .iter()
            .find(|s| s.cfg.workload.decomposition == dec && s.cfg.workload.n == SIZES[3])
            .expect("the cycle covers every kind at every size");
        let input = bsr_core::numeric::generate_input(&spec.cfg);
        let handle = JobHandle::solo(spec.cfg.clone(), input).expect("generated inputs are n × n");
        dense::independent_check(&handle, seed, checks);
    }
    let warmup_arrivals = derive_seed(seed, "arrivals/warm-up");
    for open in [false, true, false] {
        episode(
            ready.stream(open),
            open,
            warmup_arrivals,
            &mut Tracer::off(),
            checks,
        );
    }
    ready
}

#[derive(Default)]
struct Episodes {
    closed: Vec<Episode>,
    open: Vec<Episode>,
}

/// One closed and one open episode; `index` numbers the pairs of a run.
fn pair(
    ready: &Ready,
    seed: u64,
    index: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
    into: &mut Episodes,
) {
    let arrivals = derive_seed(seed, &format!("arrivals/{index}"));
    into.closed
        .push(episode(ready.stream(false), false, arrivals, tr, checks));
    into.open
        .push(episode(ready.stream(true), true, arrivals, tr, checks));
}

fn jobs_per_s(closed: &[Episode]) -> Summary {
    median_of_episodes(closed, |e| e.jobs as f64 / e.wall_s)
}

pub fn run(args: &Args) -> Outcome {
    let counts = if args.smoke { SMOKE } else { FULL };
    let mut checks = Checks::default();
    if args.trace {
        return traced(counts, args, checks);
    }
    let (ready, setup_s) = crate::timed_setups(|| setup(counts, args.seed, &mut checks));
    let mut eps = Episodes::default();
    let t0 = Instant::now();
    while eps.closed.len() < MIN_PAIRS || t0.elapsed().as_secs_f64() < args.seconds {
        pair(
            &ready,
            args.seed,
            eps.closed.len(),
            &mut Tracer::off(),
            &mut checks,
            &mut eps,
        );
    }

    let mut out = Outcome::default();
    out.metrics.push(Metric::timing("setup_s", setup_s));
    for (i, dec) in Decomposition::ALL.into_iter().enumerate() {
        let s = median_of_episodes(&eps.closed, |e| e.kind_run_s[i]);
        out.metrics
            .push(Metric::timing(&format!("{}_s_p50", kind_name(dec)), s));
    }
    out.metrics
        .push(Metric::timing("jobs_per_s", jobs_per_s(&eps.closed)));
    let latency = median_of_episodes(&eps.open, |e| percentile(&e.latency_s, 50.0));
    out.metrics.push(Metric::timing("latency_s_p50", latency));
    out.metrics
        .extend(crate::headline_metrics(&paper::model_headline(
            derive_seed(args.seed, "paper"),
        )));
    out.detail = vec![
        ("closed_jobs".to_string(), json::int(counts.closed as u64)),
        ("open_jobs".to_string(), json::int(counts.open as u64)),
        ("open_rate_per_s".to_string(), json::num(OPEN_RATE_PER_S)),
        ("workers".to_string(), json::int(WORKERS as u64)),
        (
            "episode_pairs".to_string(),
            json::int(eps.closed.len() as u64),
        ),
        (
            "latency_s_p95".to_string(),
            json::num(median_of_episodes(&eps.open, |e| percentile(&e.latency_s, 95.0)).p50),
        ),
    ];
    out.checks = checks;
    out
}

/// The traced run: every other pair of episodes records an episode span and, from
/// the service's own outcome records, one span per job with its queue wait and
/// run under it.
fn traced(counts: Counts, args: &Args, mut checks: Checks) -> Outcome {
    let ready = setup(counts, args.seed, &mut checks);
    let mut tr = Tracer::on();
    let (mut on, mut off) = (Episodes::default(), Episodes::default());
    let t0 = Instant::now();
    let mut pairs = 0;
    while pairs < 4 || t0.elapsed().as_secs_f64() < args.seconds * crate::TRACED_SHARE {
        let traced_pair = pairs % 2 == 0;
        tr.set_on(traced_pair);
        pair(
            &ready,
            args.seed,
            pairs,
            &mut tr,
            &mut checks,
            if traced_pair { &mut on } else { &mut off },
        );
        pairs += 1;
    }
    tr.set_on(true);

    let open = |f: &dyn Fn(&Episode) -> f64| median_of_episodes(&on.open, f).p50;
    let closed = |f: &dyn Fn(&Episode) -> f64| median_of_episodes(&on.closed, f).p50;
    let layer = vec![
        (
            "trace.overhead_frac",
            jobs_per_s(&off.closed).p50 / jobs_per_s(&on.closed).p50 - 1.0,
        ),
        ("service.queue_wait_s_p50", open(&|e| e.queue_wait_s_p50)),
        ("service.run_s_p50", open(&|e| e.run_s_p50)),
        // Worker-seconds per job that are not the engine's: dispatch, input
        // generation, planning, bookkeeping, idling at the tail.
        (
            "service.overhead_per_job_s",
            closed(&|e| e.wall_s * WORKERS as f64 / e.jobs as f64 - e.mean_run_s),
        ),
        (
            "service.latency_s_p95",
            open(&|e| percentile(&e.latency_s, 95.0)),
        ),
        (
            "service.gen_late_s_p99",
            open(&|e| percentile(&e.late_s, 99.0)),
        ),
        (
            "service.achieved_rate_frac",
            open(&|e| e.jobs as f64 / e.wall_s / OPEN_RATE_PER_S),
        ),
        (
            "queue.mean_batch_size",
            closed(&|e| e.jobs as f64 / e.batches as f64),
        ),
        (
            "queue.rejected",
            on.closed
                .iter()
                .chain(&on.open)
                .map(|e| e.rejected as f64)
                .sum(),
        ),
    ];
    crate::write_trace(&tr, args);
    Outcome {
        layer: layer.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        checks,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_offsets_match_jobs_by_ascending_id() {
        // Completion order is scrambled; ids were handed out in submission order.
        let jobs = vec![(12, 0.31, 0.05), (10, 0.10, 0.02), (11, 0.25, 0.01)];
        let due = [0.10, 0.20, 0.30];
        let out = latencies_from_due(jobs, &due);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // id 10: due 0.10, submitted on time, done at 0.12.
        assert!(close(out[0].0, 0.02) && close(out[0].1, 0.0));
        // id 11: due 0.20, submitted 50 ms late: the stall counts as latency.
        assert!(close(out[1].0, 0.06) && close(out[1].1, 0.05));
        assert!(close(out[2].0, 0.06) && close(out[2].1, 0.01));
    }

    #[test]
    fn the_job_stream_holds_the_same_work_for_every_seed() {
        let shape = |seed: u64| -> Vec<(usize, Decomposition, Precision, JobClass)> {
            specs(24, seed)
                .iter()
                .map(|s| {
                    (
                        s.cfg.workload.n,
                        s.cfg.workload.decomposition,
                        s.cfg.precision,
                        s.class,
                    )
                })
                .collect()
        };
        assert_eq!(shape(13), shape(14));
        let a = specs(24, 13);
        assert_ne!(a[0].cfg.seed, specs(24, 14)[0].cfg.seed);
        assert_eq!(a.iter().filter(|s| s.class == JobClass::Latency).count(), 6);
        assert!(a
            .iter()
            .all(|s| s.cfg.workload.decomposition != Decomposition::Qr
                || s.cfg.precision == Precision::F64));
        assert!(a.iter().any(|s| s.cfg.precision == Precision::MixedF32));
    }

    #[test]
    fn episodes_complete_clean_in_both_phases() {
        let mut checks = Checks::default();
        let ready = setup(SMOKE, 13, &mut checks);
        let mut eps = Episodes::default();
        let mut tr = Tracer::on();
        pair(&ready, 13, 0, &mut tr, &mut checks, &mut eps);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        let open = &eps.open[0];
        assert_eq!(open.latency_s.len(), SMOKE.open);
        assert!(open.latency_s.iter().all(|&l| l > 0.0));
        assert!(open.late_s.iter().all(|&l| l >= 0.0));
        assert!(eps.closed[0].batches <= SMOKE.closed);
        // One episode span per phase and three spans per job.
        assert_eq!(tr.spans().len(), 2 + 3 * (SMOKE.closed + SMOKE.open));
    }
}
