//! Seeds, problem sizes and job configurations: everything a workload feeds the
//! program derives from `--seed` here, and the program sees only the result.

use bsr_abft::checksum::ChecksumScheme;
use bsr_abft::recover::RecoveryPolicy;
use bsr_core::analytic;
use bsr_core::config::{AbftMode, Precision, RunConfig};
use bsr_core::numeric::generate_input;
use bsr_linalg::generate::random_matrix;
use bsr_linalg::matrix::Matrix;
use bsr_sched::strategy::{BsrConfig, Strategy};
use bsr_sched::workload::Decomposition;
use hetero_sim::freq::MHz;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Problem size of the dense workloads and the layer probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub n: usize,
    pub block: usize,
}

impl Scale {
    /// The pinned operating point: n = 1024, block 128.
    pub const FULL: Scale = Scale {
        n: 1024,
        block: 128,
    };
    /// `--smoke` and the unit tests: same code paths, a hundredth of the flops.
    pub const SMOKE: Scale = Scale { n: 256, block: 64 };
}

/// Lower-case name of a decomposition, as used in metric names.
pub fn kind_name(dec: Decomposition) -> &'static str {
    match dec {
        Decomposition::Cholesky => "cholesky",
        Decomposition::Lu => "lu",
        Decomposition::Qr => "qr",
    }
}

/// A seed for one named purpose, derived from the run seed: FNV-1a over the tag
/// folded into the seed, finished with the splitmix64 mixer so neighbouring run
/// seeds give unrelated streams.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// `dense_bare`: what `RunConfig::small` gives a new user (stepped runtime,
/// measured feedback on), with ABFT and fault sampling off.
pub fn bare_cfg(dec: Decomposition, scale: Scale, seed: u64) -> RunConfig {
    RunConfig::small(dec, scale.n, scale.block, Strategy::Original)
        .with_abft_mode(AbftMode::Forced(ChecksumScheme::None))
        .with_fault_injection(false)
        .with_seed(seed)
}

/// Expected SDC strikes per `dense_protected` job: enough that no seed's job meets
/// none (e⁻¹³ ≈ 2·10⁻⁶), few enough that two rarely share a tile, so nearly
/// every strike is corrected in place and a tile recomputation is the exception.
const STRIKES_PER_JOB: f64 = 12.0;

/// `dense_protected`: BSR r = 0.4 under the optimized guardband, Full checksums,
/// the recovery ladder on, and the GPU's fault-free ceiling lowered below its base
/// clock so every iteration is exposed. The stock model doubles the SDC rate every
/// 100 MHz, which at this scale puts hundreds of strikes into the two or three most
/// overclocked iterations (every tile recomputed) and next to none elsewhere; the
/// recipe flattens that curve and sets the rate from the model's own busy time so
/// that a job meets about [`STRIKES_PER_JOB`] single-element strikes plus a tenth
/// as many row/column ones, whatever its size. Feedback off selects the DAG
/// runtime and makes the fault schedule host-independent.
pub fn protected_cfg(dec: Decomposition, scale: Scale, fault_seed: u64) -> RunConfig {
    let mut cfg = RunConfig::small(
        dec,
        scale.n,
        scale.block,
        Strategy::Bsr(BsrConfig::with_ratio(0.4)),
    )
    .with_abft_mode(AbftMode::Forced(ChecksumScheme::Full))
    .with_measured_feedback(false)
    .with_recovery(RecoveryPolicy::enabled())
    .with_seed(fault_seed);
    let sdc = &mut cfg.platform.gpu.sdc;
    sdc.fault_free_max = MHz(1000.0);
    sdc.one_d_onset = MHz(1000.0);
    sdc.rate_doubling_mhz = f64::MAX;
    // With the curve flat, the rate at every exposed clock is half the base rate.
    let modelled = analytic::run(cfg.clone().with_fault_injection(false));
    let busy_s: f64 = modelled
        .iterations
        .iter()
        .map(|t| t.timing.pu_s + t.timing.tmu_s + t.timing.abft_s)
        .sum();
    let sdc = &mut cfg.platform.gpu.sdc;
    sdc.base_rate_per_s = 2.0 * STRIKES_PER_JOB / busy_s;
    sdc.one_d_base_rate_per_s = sdc.base_rate_per_s / 10.0;
    cfg
}

/// `mixed_solve`: f32 factorization + f64 refinement for Cholesky and LU. The
/// engine has no f32 QR, so the QR job runs f64 on the DAG runtime with ABFT off —
/// the one runtime × protection pairing the other dense workloads do not time.
pub fn mixed_cfg(dec: Decomposition, scale: Scale, seed: u64) -> RunConfig {
    let precision = if dec == Decomposition::Qr {
        Precision::F64
    } else {
        Precision::MixedF32
    };
    bare_cfg(dec, scale, seed)
        .with_measured_feedback(false)
        .with_precision(precision)
}

/// The input a job factors: the engine's own generator, keyed by `input_seed`
/// rather than by the job's (fault) seed.
pub fn input_for(cfg: &RunConfig, input_seed: u64) -> Matrix {
    generate_input(&cfg.clone().with_seed(input_seed))
}

/// `n × cols` right-hand sides.
pub fn rhs(n: usize, cols: usize, seed: u64) -> Matrix {
    random_matrix(&mut ChaCha8Rng::seed_from_u64(seed), n, cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_depend_on_seed_and_tag() {
        assert_eq!(derive_seed(13, "input/lu/0"), derive_seed(13, "input/lu/0"));
        assert_ne!(derive_seed(13, "input/lu/0"), derive_seed(13, "input/lu/1"));
        assert_ne!(derive_seed(13, "input/lu/0"), derive_seed(14, "input/lu/0"));
    }

    #[test]
    fn same_seed_gives_bit_identical_inputs_and_another_seed_does_not() {
        let cfg = bare_cfg(Decomposition::Cholesky, Scale { n: 48, block: 16 }, 1);
        let a = input_for(&cfg, derive_seed(13, "input/cholesky/0"));
        let b = input_for(&cfg, derive_seed(13, "input/cholesky/0"));
        let c = input_for(&cfg, derive_seed(14, "input/cholesky/0"));
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
        assert_eq!(rhs(48, 8, 5).data(), rhs(48, 8, 5).data());
    }

    #[test]
    fn no_seed_leaves_a_protected_job_without_faults() {
        // The engine plans one fault per SDC event the analytic driver samples for
        // the same config, so the model alone tells how many strikes a job meets.
        for scale in [Scale::FULL, Scale::SMOKE] {
            for dec in Decomposition::ALL {
                let name = kind_name(dec);
                let counts: Vec<usize> = (0..300)
                    .map(|seed| {
                        let cfg =
                            protected_cfg(dec, scale, derive_seed(seed, &format!("job/{name}")));
                        analytic::run(cfg).sdc_events
                    })
                    .collect();
                let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
                assert!(
                    counts.iter().all(|&c| c >= 1),
                    "{scale:?} {name}: some seed in 0..300 meets no fault"
                );
                assert!(
                    (mean - 1.1 * STRIKES_PER_JOB).abs() < 1.5,
                    "{scale:?} {name}: mean {mean}"
                );
            }
        }
    }

    #[test]
    fn configs_select_the_runtime_each_workload_claims() {
        let s = Scale::SMOKE;
        let bare = bare_cfg(Decomposition::Lu, s, 1);
        assert!(bare.measured_feedback && !bare.inject_faults);
        let prot = protected_cfg(Decomposition::Lu, s, 1);
        assert!(!prot.measured_feedback && prot.inject_faults && prot.recovery.enabled);
        assert!(prot.fault_mix.is_inert());
        assert_eq!(
            mixed_cfg(Decomposition::Lu, s, 1).precision,
            Precision::MixedF32
        );
        assert_eq!(mixed_cfg(Decomposition::Qr, s, 1).precision, Precision::F64);
        assert!(!mixed_cfg(Decomposition::Qr, s, 1).measured_feedback);
    }
}
