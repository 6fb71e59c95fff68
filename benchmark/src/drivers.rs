//! `bsr-linalg` has one set of drivers per decomposition; the replay and the
//! layer probes both need "the stepper / DAG driver / residual of whichever
//! decomposition this is". Inputs are the benchmark's own well-conditioned
//! matrices, so a driver error here is a bug, not an outcome.

use bsr_core::numeric::NumericFactors;
use bsr_linalg::dag::DagExecution;
use bsr_linalg::matrix::Matrix;
use bsr_linalg::task::{StepTiming, TrailingHook};
use bsr_linalg::verify::{cholesky_residual, lu_residual, qr_residual};
use bsr_linalg::{cholesky, lu, qr};
use bsr_sched::workload::Decomposition;

/// The tiled stepper of any decomposition, run with the no-op hook.
pub enum Stepper {
    Cholesky(cholesky::CholeskyTiledStepper),
    Lu(lu::LuTiledStepper),
    Qr(qr::QrTiledStepper),
}

impl Stepper {
    /// Copies the input and factors the prologue panel.
    pub fn new(dec: Decomposition, input: &Matrix, block: usize) -> Stepper {
        match dec {
            Decomposition::Cholesky => Stepper::Cholesky(
                cholesky::CholeskyTiledStepper::new(input.clone(), block).expect("input is SPD"),
            ),
            Decomposition::Lu => {
                Stepper::Lu(lu::LuTiledStepper::new(input, block).expect("input is non-singular"))
            }
            Decomposition::Qr => Stepper::Qr(qr::QrTiledStepper::new(input, block)),
        }
    }

    pub fn iterations(&self) -> usize {
        match self {
            Stepper::Cholesky(s) => s.iterations(),
            Stepper::Lu(s) => s.iterations(),
            Stepper::Qr(s) => s.iterations(),
        }
    }

    pub fn prologue_panel_s(&self) -> f64 {
        match self {
            Stepper::Cholesky(s) => s.prologue_panel_s(),
            Stepper::Lu(s) => s.prologue_panel_s(),
            Stepper::Qr(s) => s.prologue_panel_s(),
        }
    }

    pub fn step(&mut self, k: usize) -> StepTiming {
        match self {
            Stepper::Cholesky(s) => s.step(k, &()).expect("input is SPD"),
            Stepper::Lu(s) => s.step(k, &()).expect("input is non-singular"),
            Stepper::Qr(s) => s.step(k, &()),
        }
    }

    pub fn into_factors(self) -> NumericFactors {
        match self {
            Stepper::Cholesky(s) => NumericFactors::Cholesky(s.into_matrix()),
            Stepper::Lu(s) => NumericFactors::Lu(s.into_factors()),
            Stepper::Qr(s) => NumericFactors::Qr(s.into_factors()),
        }
    }
}

/// The whole-factorization DAG driver with `hook` riding its tasks (`&()` for none).
pub fn dag_with(
    dec: Decomposition,
    input: &Matrix,
    block: usize,
    hook: &dyn TrailingHook,
) -> NumericFactors {
    match dec {
        Decomposition::Cholesky => {
            let mut m = input.clone();
            cholesky::cholesky_dag_with(&mut m, block, hook, DagExecution::Pool)
                .expect("input is SPD");
            NumericFactors::Cholesky(m)
        }
        Decomposition::Lu => NumericFactors::Lu(
            lu::lu_dag_with(input, block, hook, DagExecution::Pool)
                .expect("input is non-singular")
                .0,
        ),
        Decomposition::Qr => {
            NumericFactors::Qr(qr::qr_dag_with(input, block, hook, DagExecution::Pool).0)
        }
    }
}

/// The synchronous fork-join driver (the DAG drivers' reference).
pub fn blocked(dec: Decomposition, input: &Matrix, block: usize) -> NumericFactors {
    match dec {
        Decomposition::Cholesky => {
            let mut m = input.clone();
            cholesky::cholesky_blocked(&mut m, block).expect("input is SPD");
            NumericFactors::Cholesky(m)
        }
        Decomposition::Lu => {
            NumericFactors::Lu(lu::lu_blocked(input, block).expect("input is non-singular"))
        }
        Decomposition::Qr => NumericFactors::Qr(qr::qr_blocked(input, block)),
    }
}

/// Relative factorization residual against `input`, as the engine computes it:
/// f32 factors are promoted first.
pub fn residual(input: &Matrix, factors: &NumericFactors) -> f64 {
    match factors {
        NumericFactors::Cholesky(m) => cholesky_residual(input, &m.lower_triangular()),
        NumericFactors::Lu(f) => lu_residual(input, f),
        NumericFactors::Qr(f) => qr_residual(input, f),
        NumericFactors::MixedLu(f) => lu_residual(
            input,
            &lu::LuFactors {
                lu: f.lu.promote(),
                pivots: f.pivots.clone(),
            },
        ),
        NumericFactors::MixedCholesky(m) => {
            cholesky_residual(input, &m.promote().lower_triangular())
        }
    }
}

/// ∞-norm (largest absolute row sum) in one pass over the column-major storage.
pub fn inf_norm(m: &Matrix) -> f64 {
    let mut sums = vec![0.0f64; m.rows()];
    for col in m.data().chunks_exact(m.rows().max(1)) {
        for (s, &v) in sums.iter_mut().zip(col) {
            *s += v.abs();
        }
    }
    sums.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsr_linalg::generate::{random_matrix, random_spd_matrix};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn every_driver_of_every_decomposition_factors_the_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let general = random_matrix(&mut rng, 96, 96);
        let spd = random_spd_matrix(&mut rng, 96);
        for dec in Decomposition::ALL {
            let input = if dec == Decomposition::Cholesky {
                &spd
            } else {
                &general
            };
            let mut stepper = Stepper::new(dec, input, 32);
            assert_eq!(stepper.iterations(), 3);
            assert!(stepper.prologue_panel_s() > 0.0);
            for k in 0..stepper.iterations() {
                stepper.step(k);
            }
            for factors in [
                stepper.into_factors(),
                dag_with(dec, input, 32, &()),
                blocked(dec, input, 32),
            ] {
                assert!(residual(input, &factors) < 1e-12, "{dec:?}");
            }
        }
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 0.5]]);
        assert_eq!(inf_norm(&m), 3.5);
    }
}
