//! Cross-layer integration: the residual every numeric job ends with.
//!
//! One n = 160, b = 32 job per decomposition through `run_numeric_on`, on each engine
//! path — stepped (measured feedback on), whole-run DAG (feedback off) and mixed
//! precision — checked from outside against the dense formulation of the residual:
//! explicit triangular factors, a full product, an explicit difference. The engine's
//! own number comes from the structure-exploiting sweeps in `bsr_linalg::verify`; the
//! two must agree, and an unprotected run that took a fault must still be reported
//! wrong. A mixed-precision run computes no residual (it is judged by its
//! refinement); the oracle still holds its promoted f32 factors to f32 accuracy.

use bsr_repro::framework::config::{AbftMode, Precision};
use bsr_repro::linalg::blas3::{gemm, Trans};
use bsr_repro::linalg::lu::LuFactors;
use bsr_repro::linalg::verify::CORRECTNESS_THRESHOLD;
use bsr_repro::linalg::Matrix;
use bsr_repro::prelude::*;

const N: usize = 160;
const BLOCK: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Stepped,
    Dag,
    Mixed,
}

fn on_path(cfg: RunConfig, path: Path) -> RunConfig {
    match path {
        Path::Stepped => cfg.with_measured_feedback(true),
        Path::Dag => cfg.with_measured_feedback(false),
        Path::Mixed => cfg.with_measured_feedback(false).with_precision(Precision::MixedF32),
    }
}

/// Every (decomposition, path) pair the engine offers; mixed QR is rejected by design.
fn cases() -> impl Iterator<Item = (Decomposition, Path)> {
    [Decomposition::Cholesky, Decomposition::Lu, Decomposition::Qr]
        .into_iter()
        .flat_map(|dec| [Path::Stepped, Path::Dag, Path::Mixed].map(move |p| (dec, p)))
        .filter(|&(dec, path)| !(dec == Decomposition::Qr && path == Path::Mixed))
}

fn dense_relative(expected: &Matrix, actual: &Matrix) -> f64 {
    expected.sub(actual).frobenius_norm() / expected.frobenius_norm()
}

fn dense_lu(input: &Matrix, f: &LuFactors) -> f64 {
    dense_relative(&f.apply_permutation(input), &gemm(&f.l(), Trans::No, &f.u(), Trans::No))
}

fn dense_cholesky(input: &Matrix, storage: &Matrix) -> f64 {
    let l = storage.lower_triangular();
    dense_relative(input, &gemm(&l, Trans::No, &l, Trans::Yes))
}

/// The dense oracle of the factorization residual, for whatever the run produced.
fn dense_residual(input: &Matrix, factors: &NumericFactors) -> f64 {
    match factors {
        NumericFactors::Cholesky(m) => dense_cholesky(input, m),
        NumericFactors::MixedCholesky(m) => dense_cholesky(input, &m.promote()),
        NumericFactors::Lu(f) => dense_lu(input, f),
        NumericFactors::MixedLu(f) => {
            dense_lu(input, &LuFactors { lu: f.lu.promote(), pivots: f.pivots.clone() })
        }
        NumericFactors::Qr(f) => {
            let mut qr = f.r();
            f.apply_q(&mut qr);
            dense_relative(input, &qr)
        }
    }
}

#[test]
fn every_path_reports_the_dense_oracles_residual() {
    for (dec, path) in cases() {
        let cfg = on_path(
            RunConfig::small(dec, N, BLOCK, Strategy::Original).with_fault_injection(false),
            path,
        );
        let input = generate_input(&cfg);
        let report = run_numeric_on(cfg, &input).expect("clean run");
        let oracle = dense_residual(&input, &report.factors);
        assert!(report.numerically_correct, "{dec:?} {path:?}: residual {:e}", report.residual);
        if path == Path::Mixed {
            // A mixed run is judged by its refinement and computes no residual; its
            // promoted f32 factors still verify at f32 level against the oracle.
            assert!(
                report.residual.is_nan(),
                "{dec:?}: mixed residual {:e}",
                report.residual
            );
            assert!(oracle < 1e-4, "{dec:?} {path:?}: dense oracle {oracle:e}");
        } else {
            assert!(
                (report.residual - oracle).abs() <= 1e-14,
                "{dec:?} {path:?}: engine {:e} vs dense oracle {oracle:e}",
                report.residual
            );
            // f64 factors verify at rounding level.
            assert!(
                report.residual < 1e-13,
                "{dec:?} {path:?}: residual {:e}",
                report.residual
            );
        }
    }
}

/// The seeds an unprotected run walks, in order, until one is struck and rejected. The
/// stepped path samples SDCs over the measured wall time of its iterations, so on a
/// fast host (or in a release build) a seed can draw no event at all; walking a long
/// fixed list makes the witness independent of host speed, and a slow host still
/// stops at the first seed or two.
fn witness_seeds() -> impl Iterator<Item = u64> {
    (0..40).map(|k| 202 + 101 * k)
}

#[test]
fn an_unprotected_corruption_is_still_reported_wrong() {
    for (dec, path) in cases() {
        let caught = witness_seeds().any(|seed| {
            let mut cfg = on_path(
                RunConfig::small(dec, N, BLOCK, Strategy::Bsr(BsrConfig::with_ratio(0.4)))
                    .with_abft_mode(AbftMode::Forced(ChecksumScheme::None))
                    .with_seed(seed),
                path,
            );
            // Lower the fault-free threshold below the base clock and raise the rates so
            // the micro-second iterations of this small problem observe SDC events; the
            // DAG and mixed paths plan on analytic durations, an order shorter than the
            // measured ones the stepped path samples over.
            let boost = if path == Path::Stepped { 1.0 } else { 10.0 };
            cfg.platform.gpu.sdc.fault_free_max = bsr_repro::platform::freq::MHz(1000.0);
            cfg.platform.gpu.sdc.one_d_onset = bsr_repro::platform::freq::MHz(1100.0);
            cfg.platform.gpu.sdc.base_rate_per_s = 2.0e4 * boost;
            cfg.platform.gpu.sdc.one_d_base_rate_per_s = 2.0e3 * boost;
            let input = generate_input(&cfg);
            match run_numeric_on(cfg, &input) {
                // A struck Cholesky can lose definiteness (an LU its pivot): a structured
                // error is a rejection too.
                Err(_) => true,
                Ok(report) => {
                    let oracle = dense_residual(&input, &report.factors);
                    if path != Path::Mixed {
                        // The verdict is the residual's (mixed judges by refinement).
                        assert_eq!(
                            report.numerically_correct,
                            oracle < CORRECTNESS_THRESHOLD,
                            "{dec:?} {path:?} seed {seed}: engine {:e} vs dense oracle {oracle:e}",
                            report.residual
                        );
                    }
                    report.faults_injected > 0 && !report.numerically_correct
                }
            }
        });
        assert!(caught, "{dec:?} {path:?}: no seed produced a corrupted, rejected run");
    }
}
