//! Per-layer probes: every layer measured from outside, by timing calls into its
//! public functions at the pinned operating point. They do not depend on the
//! traced workload, so the per-layer table reads the same whichever workload's
//! traced run produced it. Ungated: they explain a move of an end-to-end metric,
//! they are never the claim.

use crate::drivers::{self, Stepper};
use crate::inputs::{self, derive_seed, kind_name, Scale};
use crate::metrics::Checks;
use crate::stats::median;
use bsr_abft::checksum::{
    encode_block, update_block_checksums_gemm, verify_and_correct, ChecksumScheme,
};
use bsr_abft::coverage::num_protected_blocks;
use bsr_abft::fused::{FusedTileChecksums, PerIterationChecksums};
use bsr_abft::mixed::{MixedChecksums, MixedPerIterationChecksums};
use bsr_abft::recover::{RecoveryAction, RecoveryPolicy};
use bsr_core::analytic;
use bsr_core::config::{AbftMode, Precision, RunConfig};
use bsr_core::fleet::{FleetPlanner, InFlightJob};
use bsr_core::numeric::{generate_input, NumericError};
use bsr_core::pareto::{paper_ratio_grid, sweep_reclamation_ratio};
use bsr_core::queue::{AdmissionConfig, AdmissionQueue, JobClass, JobId, QueuedJob};
use bsr_core::service::JobHandle;
use bsr_linalg::blas3::{
    gemm_into_block, syrk_lower_into_block, trsm_into_block, Diag, Side, Trans, UpLo,
};
use bsr_linalg::dag;
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::solve::cholesky_solve;
use bsr_linalg::verify::{cholesky_residual, lu_residual, qr_residual};
use bsr_linalg::{cholesky, lowprec, lu, qr, Element};
use bsr_sched::strategy::{plan_iteration, BsrConfig, Strategy, TaskPredictions};
use bsr_sched::workload::Decomposition;
use hetero_sim::freq::MHz;
use hetero_sim::platform::PlatformConfig;
use hetero_sim::sdc::FaultMix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `reps` calls of `f` on a fresh `prep()` each (preparation
/// untimed): in-place factorizations need their input restored between calls.
fn time_with<S, T>(reps: usize, mut prep: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let state = prep();
            let t0 = Instant::now();
            black_box(f(black_box(state)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    time_with(reps, || (), |()| f())
}

/// The probes' shared inputs.
struct Inputs {
    scale: Scale,
    general: Matrix,
    spd: Matrix,
}

struct Probe<'a> {
    reps: usize,
    seed: u64,
    inp: Inputs,
    out: Vec<(String, f64)>,
    checks: &'a mut Checks,
}

impl Probe<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.out.push((name.to_string(), value));
    }

    fn input(&self, dec: Decomposition) -> &Matrix {
        if dec == Decomposition::Cholesky {
            &self.inp.spd
        } else {
            &self.inp.general
        }
    }
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn probe_all(scale: Scale, seed: u64, smoke: bool, checks: &mut Checks) -> Vec<(String, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, "layers"));
    let inp = Inputs {
        scale,
        general: random_matrix(&mut rng, scale.n, scale.n),
        spd: random_spd_matrix(&mut rng, scale.n),
    };
    let mut p = Probe {
        reps: if smoke { 1 } else { 3 },
        seed,
        inp,
        out: Vec::new(),
        checks,
    };
    let gemm_gflops = blas3_probes(&mut p);
    panel_probes(&mut p);
    dag_probes(&mut p, gemm_gflops);
    lowprec_solve_verify_probes(&mut p);
    checksum_probes(&mut p);
    fused_and_mixed_probes(&mut p);
    recover_campaign(&mut p);
    model_probes(&mut p);
    numeric_probes(&mut p);
    queue_and_fleet_probes(&mut p);
    p.out
}

/// Packed level-3 kernels, both element types; returns the f64 GEMM rate the DAG
/// drivers are held against.
fn blas3_probes(p: &mut Probe) -> f64 {
    fn gemm_rate<E: Element>(reps: usize, a: &Matrix<E>, b: &Matrix<E>) -> f64 {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut c = Matrix::<E>::zeros(m, n);
        let s = time(reps, || {
            gemm_into_block(
                1.0,
                a,
                Trans::No,
                b,
                Trans::No,
                0.0,
                &mut c,
                Block::full(m, n),
            )
        });
        2.0 * (m * k * n) as f64 / s / 1e9
    }
    let (n, b) = (p.inp.scale.n, p.inp.scale.block);
    let reps = p.reps + 2;
    let a = &p.inp.general;
    // The trailing-update shape the factorizations actually run: k = one block.
    let tall = a.copy_block(Block::new(0, 0, n - b, b));
    let wide = a.copy_block(Block::new(0, 0, b, n - b));
    let gemm = gemm_rate(reps, a, a);
    let gemm_k = gemm_rate(reps, &tall, &wide);
    let gemm32 = gemm_rate(reps, &a.demote(), &a.demote());
    let gemm32_k = gemm_rate(reps, &tall.demote(), &wide.demote());

    let mut l = a.lower_triangular();
    for i in 0..n {
        l.set(i, i, 2.0 + (n + i) as f64);
    }
    let trsm = time_with(
        reps,
        || a.clone(),
        |mut x| {
            trsm_into_block(
                Side::Right,
                UpLo::Lower,
                Trans::Yes,
                Diag::NonUnit,
                1.0,
                &l,
                &mut x,
                Block::full(n, n),
            );
            x
        },
    );
    let mut c = Matrix::zeros(n, n);
    let syrk = time(reps, || {
        syrk_lower_into_block(1.0, a, 0.0, &mut c, Block::full(n, n))
    });
    let n3 = (n * n * n) as f64;
    p.put("blas3.gemm_f64_gflops", gemm);
    p.put("blas3.gemm_f64_k128_gflops", gemm_k);
    p.put("blas3.trsm_f64_gflops", n3 / trsm / 1e9);
    p.put("blas3.syrk_f64_gflops", n3 / syrk / 1e9);
    p.put("blas3.gemm_f32_gflops", gemm32);
    p.put("blas3.gemm_f32_k128_gflops", gemm32_k);
    gemm
}

/// First-panel time per factorization, and the panel / update shares of one
/// stepped factorization from the steppers' own `StepTiming`.
fn panel_probes(p: &mut Probe) {
    let b = p.inp.scale.block;
    let reps = p.reps + 2;
    let lu_panel = time_with(
        reps,
        || p.inp.general.clone(),
        |mut a| {
            lu::panel_factor(&mut a, 0, b, &mut Vec::with_capacity(b))
                .expect("input is non-singular")
        },
    );
    let chol_panel = time_with(
        reps,
        || p.inp.spd.clone(),
        |mut a| cholesky::potf2(&mut a, 0, b).expect("input is SPD"),
    );
    let qr_panel = time_with(
        reps,
        || p.inp.general.clone(),
        |mut a| {
            let mut taus = Vec::with_capacity(b);
            qr::panel_factor(&mut a, 0, b, &mut taus);
            qr::form_t(&a, 0, b, &taus)
        },
    );
    p.put("lu.panel_s", lu_panel);
    p.put("cholesky.panel_s", chol_panel);
    p.put("qr.panel_s", qr_panel);

    // At one thread the lookahead panel runs inside the update region, so
    // update-only time is the region minus the panel.
    for dec in Decomposition::ALL {
        let input = p.input(dec);
        let shares: Vec<(f64, f64)> = (0..p.reps)
            .map(|_| {
                let t0 = Instant::now();
                let mut stepper = Stepper::new(dec, input, b);
                let (mut panel_s, mut update_s) = (stepper.prologue_panel_s(), 0.0);
                for k in 0..stepper.iterations() {
                    let t = stepper.step(k);
                    panel_s += t.panel_s;
                    update_s += t.update_s - t.panel_s;
                }
                let wall = t0.elapsed().as_secs_f64();
                (panel_s / wall, update_s / wall)
            })
            .collect();
        let name = kind_name(dec);
        p.put(
            &format!("{name}.panel_frac"),
            median(&shares.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        p.put(
            &format!("{name}.update_frac"),
            median(&shares.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
    }
}

/// The DAG drivers against the GEMM below them, against the fork-join drivers,
/// and — the only numbers taken at two threads — their scaling.
fn dag_probes(p: &mut Probe, gemm_gflops: f64) {
    let (n, b) = (p.inp.scale.n, p.inp.scale.block);
    let reps = p.reps + 2;
    let mut t1 = Vec::new();
    for dec in Decomposition::ALL {
        let name = kind_name(dec);
        let input = p.input(dec);
        let dag_s = time(reps, || drivers::dag_with(dec, input, b, &()));
        if dec == Decomposition::Lu {
            let tasks = dag::last_run_stats().map_or(0, |s| s.tasks);
            p.put("dag.lu_tasks", tasks as f64);
        }
        let input = p.input(dec);
        let blocked_s = time(reps, || drivers::blocked(dec, input, b));
        let gflops = dec.total_flops(n) / dag_s / 1e9;
        p.put(&format!("dag.{name}_gflops_t1"), gflops);
        p.put(&format!("dag.{name}_of_gemm_frac"), gflops / gemm_gflops);
        p.put(&format!("dag.{name}_vs_blocked"), dag_s / blocked_s);
        t1.push(dag_s);
    }
    // Two threads: by design these move no gated metric. The guard restores the
    // pinned single thread when it drops.
    let _two = rayon::ThreadCountGuard::set(2);
    for (dec, t1_s) in Decomposition::ALL.into_iter().zip(t1) {
        let input = p.input(dec);
        let t2_s = time(reps, || drivers::dag_with(dec, input, b, &()));
        p.put(&format!("dag.{}_speedup_t2", kind_name(dec)), t1_s / t2_s);
    }
    let mut sink = [0u64; 2];
    sink.par_chunks_mut(1).for_each(|c| c[0] += 1);
    let dispatch: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            sink.par_chunks_mut(1).for_each(|c| c[0] += 1);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    p.put("pool.dispatch_us", median(&dispatch) * 1e6);
}

fn lowprec_solve_verify_probes(p: &mut Probe) {
    let (n, b) = (p.inp.scale.n, p.inp.scale.block);
    let reps = p.reps + 2;
    let general32 = p.inp.general.demote();
    let spd32 = p.inp.spd.demote();
    let lu32 = time(reps, || {
        lowprec::lu_blocked_f32(&general32, b, &()).expect("input is non-singular")
    });
    let chol32 = time_with(
        reps,
        || spd32.clone(),
        |mut m| lowprec::cholesky_blocked_f32(&mut m, b, &()).expect("input is SPD"),
    );
    p.put(
        "lowprec.lu_f32_gflops",
        Decomposition::Lu.total_flops(n) / lu32 / 1e9,
    );
    p.put(
        "lowprec.cholesky_f32_gflops",
        Decomposition::Cholesky.total_flops(n) / chol32 / 1e9,
    );

    let lu_f = lu::lu_dag(&p.inp.general, b).expect("input is non-singular");
    let mut chol_f = p.inp.spd.clone();
    cholesky::cholesky_dag(&mut chol_f, b).expect("input is SPD");
    let qr_f = qr::qr_dag(&p.inp.general, b);
    let rhs = inputs::rhs(n, 8, derive_seed(p.seed, "layers/rhs"));
    p.put("solve.lu_s", time(reps + 2, || lu_f.solve(&rhs)));
    p.put(
        "solve.cholesky_s",
        time(reps + 2, || cholesky_solve(&chol_f, &rhs)),
    );

    // The shape `service_small` generates most: an SPD input at n = 256.
    let gen_cfg = inputs::bare_cfg(Decomposition::Cholesky, Scale { n: 256, block: 32 }, p.seed);
    p.put(
        "generate.spd_n256_s",
        time(reps + 4, || generate_input(&gen_cfg)),
    );

    let chol_l = chol_f.lower_triangular();
    let residuals = [
        (
            "verify.cholesky_residual_s",
            time(reps, || cholesky_residual(&p.inp.spd, &chol_l)),
        ),
        (
            "verify.lu_residual_s",
            time(reps, || lu_residual(&p.inp.general, &lu_f)),
        ),
        (
            "verify.qr_residual_s",
            time(reps, || qr_residual(&p.inp.general, &qr_f)),
        ),
    ];
    for (name, s) in residuals {
        p.put(name, s);
    }
}

/// Encode / verify throughput over the matrix's `block × block` tiles (bytes are
/// computed from tile sizes, not measured), the GEMM-update identity, and what
/// each extra code order costs.
fn checksum_probes(p: &mut Probe) {
    let (n, b) = (p.inp.scale.n, p.inp.scale.block);
    let reps = p.reps + 2;
    let tiles: Vec<Block> = (0..n / b)
        .flat_map(|i| (0..n / b).map(move |j| Block::new(i * b, j * b, b, b)))
        .collect();
    let bytes = (tiles.len() * b * b * std::mem::size_of::<f64>()) as f64;
    let m = &p.inp.general.clone();
    let encode = |scheme: ChecksumScheme| {
        time(reps, || {
            tiles
                .iter()
                .map(|&t| encode_block(m, t, scheme))
                .collect::<Vec<_>>()
        })
    };
    let full = encode(ChecksumScheme::Full);
    p.put("checksum.encode_gbps", bytes / full / 1e9);
    p.put(
        "checksum.encode_multi2_ratio",
        encode(ChecksumScheme::Multi(2)) / full,
    );
    p.put(
        "checksum.encode_multi3_ratio",
        encode(ChecksumScheme::Multi(3)) / full,
    );

    let sums: Vec<_> = tiles
        .iter()
        .map(|&t| encode_block(m, t, ChecksumScheme::Full))
        .collect();
    let mut work = m.clone();
    let mut clean = true;
    let verify = time(reps, || {
        for cs in &sums {
            clean &= verify_and_correct(&mut work, cs).events.is_empty();
        }
    });
    p.checks.check(clean, || {
        "checksum probe: a clean tile failed verification".to_string()
    });
    p.put("checksum.verify_gbps", bytes / verify / 1e9);

    // One trailing tile's checksums carried through C ← C − L·U with k = one block.
    let l = m.copy_block(Block::new(0, 0, b, b));
    let u = m.copy_block(Block::new(0, b, b, b));
    p.put(
        "checksum.update_gemm_s",
        time_with(
            reps + 8,
            || sums[0].clone(),
            |mut cs| update_block_checksums_gemm(&mut cs, &l, &u),
        ),
    );
}

/// What the fused hooks add to a fault-free factorization: Full checksums riding
/// the f64 DAG drivers, and f64 checksums riding the f32 drivers.
fn fused_and_mixed_probes(p: &mut Probe) {
    let (n, b) = (p.inp.scale.n, p.inp.scale.block);
    let reps = p.reps + 2;
    let iterations = n.div_ceil(b);
    let full_hooks = || {
        PerIterationChecksums::new(
            (0..iterations)
                .map(|_| FusedTileChecksums::new(ChecksumScheme::Full, b))
                .collect(),
        )
    };
    for dec in Decomposition::ALL {
        let input = p.input(dec);
        let bare = time(reps, || drivers::dag_with(dec, input, b, &()));
        let fused = time_with(reps, full_hooks, |hook| {
            drivers::dag_with(dec, input, b, &hook)
        });
        p.put(
            &format!("fused.{}_overhead_frac", kind_name(dec)),
            fused / bare - 1.0,
        );
    }

    let mixed_hooks = || {
        MixedPerIterationChecksums::new(
            (0..iterations)
                .map(|_| MixedChecksums::new(ChecksumScheme::Full, b))
                .collect(),
        )
    };
    let general32 = p.inp.general.demote();
    let spd32 = p.inp.spd.demote();
    let lu_bare = time(reps, || {
        lowprec::lu_blocked_f32(&general32, b, &()).expect("input is non-singular")
    });
    let lu_mixed = time_with(reps, mixed_hooks, |h| {
        lowprec::lu_blocked_f32(&general32, b, &h).expect("input is non-singular")
    });
    let chol_bare = time_with(
        reps,
        || spd32.clone(),
        |mut m| lowprec::cholesky_blocked_f32(&mut m, b, &()).expect("input is SPD"),
    );
    let chol_mixed = time_with(
        reps,
        || (spd32.clone(), mixed_hooks()),
        |(mut m, h)| lowprec::cholesky_blocked_f32(&mut m, b, &h).expect("input is SPD"),
    );
    p.put("mixed.lu_overhead_frac", lu_mixed / lu_bare - 1.0);
    p.put("mixed.cholesky_overhead_frac", chol_mixed / chol_bare - 1.0);
}

/// A fixed 24-job campaign of uncorrectable-only fault mixes at n = 256 through
/// the recovery ladder. Zero silent corruptions is the invariant; everything
/// else is how the ladder got there.
fn recover_campaign(p: &mut Probe) {
    const JOBS: usize = 24;
    let mix = FaultMix {
        checksum: 0.3,
        panel: 0.2,
        burst: 0.5,
        ..FaultMix::default()
    };
    let (mut in_place, mut recomputes, mut replays, mut structured, mut silent) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut job_s = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let dec = Decomposition::ALL[i % 3];
        let mut cfg = RunConfig::small(dec, 256, 32, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
            .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
            .with_measured_feedback(false)
            .with_recovery(RecoveryPolicy::enabled())
            .with_fault_mix(mix)
            .with_seed(derive_seed(p.seed, &format!("recover/{i}")));
        cfg.platform.gpu.sdc.fault_free_max = MHz(1000.0);
        cfg.platform.gpu.sdc.one_d_onset = MHz(1100.0);
        cfg.platform.gpu.sdc.base_rate_per_s = 1.0e6;
        cfg.platform.gpu.sdc.one_d_base_rate_per_s = 1.0e5;
        let handle =
            JobHandle::solo(cfg.clone(), generate_input(&cfg)).expect("generated inputs are n × n");
        let t0 = Instant::now();
        let result = handle.run();
        job_s.push(t0.elapsed().as_secs_f64());
        dag::clear_job_stats(handle.id().as_u64());
        let history = match &result {
            Ok(rep) => {
                if !(rep.numerically_correct && rep.verification.uncorrectable == 0) {
                    silent += 1;
                }
                rep.recovery.clone()
            }
            Err(NumericError::UnrecoverableFault { history }) => {
                structured += 1;
                history.clone()
            }
            Err(e) => {
                p.checks
                    .check(false, || format!("recover campaign job {i}: {e}"));
                Vec::new()
            }
        };
        for event in history {
            match event.action {
                RecoveryAction::CorrectedInPlace => in_place += 1,
                RecoveryAction::TileRecomputed | RecoveryAction::PanelRecomputed => recomputes += 1,
                RecoveryAction::IterationReplayed | RecoveryAction::RunReplayed => replays += 1,
                RecoveryAction::Escalated => {}
            }
        }
    }
    p.checks.check(silent == 0, || {
        format!("recover campaign: {silent} silent corruptions")
    });
    let resolved = in_place + recomputes;
    p.put(
        "recover.in_place_frac",
        if resolved > 0 {
            in_place as f64 / resolved as f64
        } else {
            0.0
        },
    );
    p.put("recover.tile_recomputes", recomputes as f64);
    p.put("recover.replays", replays as f64);
    p.put("recover.structured_failures", structured as f64);
    p.put("recover.silent_corruptions", silent as f64);
    p.put("recover.job_s_p50", median(&job_s));
}

/// `bsr-sched`, `hetero-sim` and the analytic driver at the paper's scale.
fn model_probes(p: &mut Probe) {
    let platform = PlatformConfig::paper_default().build();
    let preds = TaskPredictions {
        cpu_s: 1.0,
        gpu_s: 1.5,
        transfer_s: 0.1,
    };
    let protected = num_protected_blocks(30720, 512);
    const PLANS: usize = 2000;
    let plan_s = time(p.reps + 2, || {
        for _ in 0..PLANS {
            black_box(plan_iteration(
                Strategy::Bsr(BsrConfig::default()),
                black_box(preds),
                &platform.cpu,
                &platform.gpu,
                protected,
            ));
        }
    });
    p.put("strategy.plan_iteration_us", plan_s / PLANS as f64 * 1e6);

    let base = RunConfig::paper_default(Decomposition::Lu, Strategy::Bsr(BsrConfig::default()))
        .with_seed(derive_seed(p.seed, "paper"));
    p.put(
        "analytic.run_s_p50",
        time(5 * p.reps, || analytic::run(base.clone())),
    );
    p.put(
        "pareto.sweep_s",
        time(p.reps + 2, || {
            sweep_reclamation_ratio(&base, &paper_ratio_grid())
        }),
    );
}

/// The engine against itself: predictor error of a feedback-on run, and the mixed
/// path's job time against the f64 path's on the same input.
fn numeric_probes(p: &mut Probe) {
    let scale = p.inp.scale;
    let job_seed = derive_seed(p.seed, "layers/job");
    let bare = inputs::bare_cfg(Decomposition::Lu, scale, job_seed);
    let handle = JobHandle::solo(bare, p.inp.general.clone()).expect("input is n × n");
    match handle.run() {
        Ok(rep) => p.put("predict.rel_err", rep.mean_predictor_error().unwrap_or(0.0)),
        Err(e) => p.checks.check(false, || format!("predictor probe: {e}")),
    }
    for dec in [Decomposition::Cholesky, Decomposition::Lu] {
        let mixed = inputs::mixed_cfg(dec, scale, job_seed);
        let f64_cfg = mixed.clone().with_precision(Precision::F64);
        let run_s = |cfg: RunConfig| {
            let handle = JobHandle::solo(cfg, p.input(dec).clone()).expect("input is n × n");
            let s = time(p.reps, || handle.run().expect("fault-free job"));
            dag::clear_job_stats(handle.id().as_u64());
            s
        };
        let ratio = run_s(f64_cfg) / run_s(mixed);
        p.put(&format!("numeric.mixed_vs_f64_{}", kind_name(dec)), ratio);
    }
}

/// The service's pure data structures: one offer → dispatch cycle per job through
/// a full admission queue, and one fleet allocation with eight jobs in flight.
fn queue_and_fleet_probes(p: &mut Probe) {
    const QUEUED: usize = 256;
    let cfg = inputs::bare_cfg(Decomposition::Cholesky, Scale { n: 96, block: 32 }, p.seed);
    let jobs = || -> Vec<QueuedJob> {
        (0..QUEUED)
            .map(|i| QueuedJob {
                id: JobId::fresh(),
                class: if i % 4 == 0 {
                    JobClass::Latency
                } else {
                    JobClass::Throughput
                },
                cfg: cfg.clone(),
                arrival_s: 0.0,
            })
            .collect()
    };
    let admission = AdmissionConfig {
        capacity: QUEUED,
        ..AdmissionConfig::default()
    };
    let cycle_s = time_with(p.reps + 4, jobs, |jobs| {
        let mut q = AdmissionQueue::new(admission);
        for job in jobs {
            black_box(q.offer(job));
        }
        let mut dispatched = 0;
        while let Some(batch) = q.next_batch() {
            dispatched += batch.jobs.len();
        }
        dispatched
    });
    p.put("queue.offer_next_ns", cycle_s / QUEUED as f64 * 1e9);

    let in_flight: Vec<InFlightJob> = (0..8)
        .map(|i| InFlightJob {
            id: JobId::fresh(),
            class: if i % 4 == 0 {
                JobClass::Latency
            } else {
                JobClass::Throughput
            },
            n: [96, 128, 192, 256][i % 4],
        })
        .collect();
    let planner = FleetPlanner::default();
    const ALLOCS: usize = 2000;
    let alloc_s = time(p.reps + 2, || {
        for _ in 0..ALLOCS {
            black_box(planner.allocate(black_box(&in_flight)));
        }
    });
    p.put("fleet.allocate_ns", alloc_s / ALLOCS as f64 * 1e9);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn probes_emit_registered_names_once_and_finite_values() {
        let mut checks = Checks::default();
        let out = probe_all(Scale::SMOKE, 13, true, &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        let mut seen = std::collections::BTreeSet::new();
        for (name, value) in &out {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not in PER_LAYER"
            );
            assert!(seen.insert(name.clone()), "{name} emitted twice");
            assert!(value.is_finite(), "{name} = {value}");
        }
        let get = |name: &str| out.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("recover.silent_corruptions"), 0.0);
        assert!(get("dag.lu_tasks") > 0.0);
        assert!(get("blas3.gemm_f64_gflops") > 0.0);
    }

    #[test]
    fn recover_counts_and_task_counts_repeat_exactly_for_a_seed() {
        let counts = |seed: u64| {
            let out = probe_all(Scale::SMOKE, seed, true, &mut Checks::default());
            [
                "dag.lu_tasks",
                "recover.tile_recomputes",
                "recover.replays",
                "recover.structured_failures",
            ]
            .map(|name| out.iter().find(|(n, _)| n == name).unwrap().1)
        };
        assert_eq!(counts(13), counts(13));
    }
}
