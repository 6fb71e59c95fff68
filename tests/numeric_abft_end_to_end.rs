//! Cross-crate integration: numeric-mode factorizations with fault injection stay correct
//! under ABFT protection, for all three decompositions.
//!
//! The reliability assertions run with measured-time predictor feedback *disabled*:
//! feedback makes BSR plans — and therefore the sampled SDC event stream — depend on
//! host wall-clock noise, while these tests need a reproducible fault schedule. The
//! feedback loop itself is exercised by `measured_feedback_reacts_to_real_execution`
//! below and by the unit tests in `bsr-core::numeric`.

use bsr_repro::framework::config::{AbftMode, PredictorKind};
use bsr_repro::prelude::*;
use bsr_repro::sched::{EnhancedPredictor, Op, SlackPredictor};

fn noisy_cfg(dec: Decomposition, mode: AbftMode, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::small(dec, 192, 32, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
        .with_abft_mode(mode)
        .with_measured_feedback(false)
        .with_seed(seed);
    // Lower the fault-free threshold below the base clock and raise the rates so the
    // micro-second iterations of this small problem still observe SDC events.
    cfg.platform.gpu.sdc.fault_free_max = bsr_repro::platform::freq::MHz(1000.0);
    cfg.platform.gpu.sdc.one_d_onset = bsr_repro::platform::freq::MHz(1100.0);
    cfg.platform.gpu.sdc.base_rate_per_s = 2.0e4;
    cfg.platform.gpu.sdc.one_d_base_rate_per_s = 2.0e3;
    cfg
}

#[test]
fn full_abft_repairs_all_three_decompositions() {
    for (dec, seed) in [
        (Decomposition::Cholesky, 303u64),
        (Decomposition::Lu, 303),
        (Decomposition::Qr, 303),
    ] {
        let out = run_numeric(noisy_cfg(dec, AbftMode::Forced(ChecksumScheme::Full), seed))
            .expect("factorization must not abort");
        assert!(out.faults_injected > 0, "{dec:?}: expected injected faults");
        assert!(
            out.numerically_correct,
            "{dec:?}: residual {:.3e} with {} faults injected",
            out.residual, out.faults_injected
        );
        assert_eq!(out.verification.uncorrectable, 0, "{dec:?}");
        // The fused checksums paid their cost on the real schedule.
        assert!(out.checksum_cpu_s > 0.0, "{dec:?}: fused checksum time must be charged");
    }
}

#[test]
fn unprotected_runs_are_corrupted() {
    let mut corrupted = 0;
    for seed in [202u64, 303, 505] {
        let out = run_numeric(noisy_cfg(Decomposition::Lu, AbftMode::Forced(ChecksumScheme::None), seed))
            .expect("factorization must not abort");
        if out.faults_injected > 0 && !out.numerically_correct {
            corrupted += 1;
        }
    }
    assert!(corrupted >= 2, "unprotected runs should usually produce wrong results");
}

/// A burst mix: every sampled SDC event becomes a single-strike four-corner burst,
/// which exceeds the correction capability of every checksum scheme by construction.
fn burst_mix() -> FaultMix {
    FaultMix { burst: 1.0, ..FaultMix::default() }
}

#[test]
fn uncorrectable_bursts_break_without_recovery() {
    // The recovery-off guard: under Full ABFT, multi-fault bursts are *detected*
    // (uncorrectable tallies) but not correctable in place, and without the recovery
    // ladder the run completes with silently corrupted factors. This is the failure
    // mode the recovery pipeline exists to close.
    let mut broken = 0;
    for seed in [202u64, 303, 505] {
        let cfg = noisy_cfg(Decomposition::Lu, AbftMode::Forced(ChecksumScheme::Full), seed)
            .with_fault_mix(burst_mix());
        let out = run_numeric(cfg).expect("factorization must not abort");
        if out.verification.uncorrectable > 0 && !out.numerically_correct {
            broken += 1;
        }
        assert!(out.recovery.is_empty(), "recovery disabled: no events expected");
    }
    assert!(broken >= 2, "bursts should usually defeat in-place correction");
}

#[test]
fn recovery_heals_uncorrectable_bursts_under_the_same_injection_schedule() {
    // The recovery-on counterpart of `uncorrectable_bursts_break_without_recovery`:
    // identical configuration and seeds — the fault planner draws the same RNG
    // stream, so the same bursts strike the same tiles — but the recovery ladder is
    // enabled. Every burst is transient (one strike), so rolling the tile back and
    // recomputing it yields clean bits; the run must finish numerically correct,
    // with a clean final verification and the recomputations on record.
    for (dec, seed) in [
        (Decomposition::Lu, 202u64),
        (Decomposition::Lu, 303),
        (Decomposition::Lu, 505),
        (Decomposition::Cholesky, 303),
        (Decomposition::Qr, 303),
    ] {
        let cfg = noisy_cfg(dec, AbftMode::Forced(ChecksumScheme::Full), seed)
            .with_fault_mix(burst_mix())
            .with_recovery(RecoveryPolicy::enabled());
        let out = run_numeric(cfg).expect("recovery must heal transient bursts");
        assert!(
            out.numerically_correct,
            "{dec:?} seed {seed}: residual {:.3e} after recovery",
            out.residual
        );
        assert_eq!(
            out.verification.uncorrectable, 0,
            "{dec:?} seed {seed}: recovered runs must verify clean"
        );
        assert!(
            out.recovery.iter().any(|e| e.action == RecoveryAction::TileRecomputed
                || e.action == RecoveryAction::PanelRecomputed),
            "{dec:?} seed {seed}: expected recomputation events in the recovery log"
        );
    }
}

#[test]
fn fault_free_adaptive_runs_match_reference_factorization() {
    for dec in Decomposition::ALL {
        let cfg = RunConfig::small(dec, 160, 32, Strategy::Bsr(BsrConfig::default()))
            .with_fault_injection(false);
        let out = run_numeric(cfg).expect("factorization failed");
        assert!(out.numerically_correct, "{dec:?} residual {:.3e}", out.residual);
        assert_eq!(out.faults_injected, 0);
    }
}

#[test]
fn numeric_and_analytic_reports_agree_on_timing_without_feedback() {
    // With measured feedback disabled, the numeric driver's predictor sees the same
    // analytic estimates as a pure analytic run, so plans — and therefore the analytic
    // time/energy totals — must be identical.
    let cfg = RunConfig::small(Decomposition::Lu, 256, 64, Strategy::SlackReclamation)
        .with_fault_injection(false)
        .with_measured_feedback(false);
    let analytic = run(cfg.clone());
    let numeric = run_numeric(cfg).unwrap();
    assert!((analytic.total_time_s - numeric.report.total_time_s).abs() < 1e-12);
    assert!((analytic.total_energy_j() - numeric.report.total_energy_j()).abs() < 1e-9);
}

#[test]
fn measured_feedback_reacts_to_real_execution() {
    // With feedback on (the default), the slack predictor observes the host's real
    // wall-clock durations, so its predictions must track the measured execution far
    // better than the analytic model of the simulated platform does — the scale-free
    // signature of a live feedback loop (absolute magnitudes depend on the host, so
    // they are not asserted).
    let cfg = RunConfig::small(Decomposition::Lu, 256, 64, Strategy::SlackReclamation)
        .with_fault_injection(false);
    let fed = run_numeric(cfg.clone()).unwrap();
    let predictor_err = fed.mean_predictor_error().expect("predictions must exist");
    let analytic_err = fed.mean_analytic_error().unwrap();
    assert!(
        predictor_err < analytic_err,
        "measured-fed predictions must track real execution better than the analytic \
         model (predictor {predictor_err:.3} vs analytic {analytic_err:.3})"
    );
    // The plans themselves are built from the measured time base: replaying the fed
    // run's measured record through a fresh predictor of the same kind, with the
    // engine's recording protocol (trailing update = the iteration's measured update,
    // panel update folded into it as 0), reproduces every iteration's prediction.
    // Magnitudes are not compared with the analytic-fed run's: whether host kernels
    // are slower or faster than the simulated GPU depends on the host.
    assert_eq!(cfg.predictor, PredictorKind::Enhanced);
    let mut replay = EnhancedPredictor::new(cfg.workload);
    for m in &fed.measured {
        let expected = replay
            .predict(m.k, Op::TrailingUpdate)
            .zip(replay.predict(m.k, Op::PanelUpdate))
            .map(|(tmu, pu)| tmu + pu);
        match (m.predicted_update_s, expected) {
            (Some(got), Some(want)) => assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "iteration {}: fed prediction {got:.6e} is not derived from the measured \
                 record ({want:.6e})",
                m.k
            ),
            (got, want) => assert_eq!(got.is_some(), want.is_some(), "iteration {}", m.k),
        }
        replay.record(m.k, Op::PanelDecomposition, m.pd_s);
        replay.record(m.k, Op::PanelUpdate, 0.0);
        replay.record(m.k, Op::TrailingUpdate, m.update_s);
    }
    // ... and that time base is not the analytic one: with feedback off, every
    // iteration with trailing work is planned from a different prediction.
    let unfed = run_numeric(cfg.with_measured_feedback(false)).unwrap();
    let with_work: Vec<_> = fed.measured[1..]
        .iter()
        .zip(&unfed.measured[1..])
        .filter(|(f, _)| f.analytic_update_s > 0.0)
        .collect();
    assert!(!with_work.is_empty(), "no planned iteration has trailing work");
    for (f, u) in with_work {
        assert!(f.predicted_update_s.is_some() && u.predicted_update_s.is_some());
        assert_ne!(
            f.predicted_update_s, u.predicted_update_s,
            "iteration {}: measured-fed and analytic-fed plans coincide",
            f.k
        );
    }
}

