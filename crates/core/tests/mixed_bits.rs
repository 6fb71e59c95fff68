//! Bit-identity gate for the mixed-precision engine path: hashes of what a
//! `Precision::MixedF32` run hands its caller — the f32 factors, the f64 refinement
//! record and an 8-column solve through the factors — at fixed seeds, against
//! recorded constants.
//!
//! The f32 factorization, the refinement sweeps and the solves are pure functions of
//! the input, so a change that only removes work nothing reads (or runs the same
//! operations at a different vector width) must leave every hash here unchanged. A
//! constant changes only in a change that means to change mixed-path arithmetic and
//! says so.
//!
//! Fault injection is off, and the configuration is the benchmark's `mixed_solve`
//! job (DAG runtime, ABFT off). The constants are those of the FMA backends
//! (`avx2+fma`, `avx512f`), which agree bit for bit; on a `scalar` backend the suite
//! is skipped.
//!
//! The inputs themselves are pinned too: `generate_input`'s hashes, recorded while the
//! generators drew element by element and built SPD inputs with a full `B·Bᵀ` GEMM,
//! hold any faster generator to the same bits.

use bsr_abft::checksum::ChecksumScheme;
use bsr_core::config::{AbftMode, Precision, RunConfig};
use bsr_core::numeric::{generate_input, run_numeric_on, NumericFactors};
use bsr_linalg::blas3::simd_backend;
use bsr_linalg::generate::random_matrix;
use bsr_linalg::{Element, Matrix};
use bsr_sched::strategy::Strategy;
use bsr_sched::workload::Decomposition;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Shape, then every element's bits (f32 widens exactly to f64).
    fn matrix<E: Element>(&mut self, m: &Matrix<E>) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for &v in m.data() {
            self.word(v.to_f64().to_bits());
        }
    }
}

fn hash_of(f: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    f(&mut h);
    h.0
}

/// Right-hand-side columns of the caller's solve (the benchmark's `mixed_solve` width).
const RHS_COLS: usize = 8;

/// The three hashes of one mixed run: factors, refinement record, caller's solve.
fn mixed_case(dec: Decomposition, n: usize, b: usize, seed: u64) -> Vec<(String, u64)> {
    let cfg = RunConfig::small(dec, n, b, Strategy::Original)
        .with_abft_mode(AbftMode::Forced(ChecksumScheme::None))
        .with_fault_injection(false)
        .with_measured_feedback(false)
        .with_precision(Precision::MixedF32)
        .with_seed(seed);
    let input = generate_input(&cfg);
    let report = run_numeric_on(cfg, &input).expect("clean mixed run");
    let name = format!("{dec:?}_n{n}_b{b}").to_lowercase();
    assert!(
        report.numerically_correct,
        "{name}: refinement must converge"
    );
    let factors = hash_of(|h| match &report.factors {
        NumericFactors::MixedCholesky(m) => h.matrix(m),
        NumericFactors::MixedLu(f) => {
            h.matrix(&f.lu);
            for &p in &f.pivots {
                h.word(p as u64);
            }
        }
        other => panic!("{name}: a mixed run returned {other:?}"),
    });
    let m = report.mixed.expect("mixed runs carry a refinement record");
    let refine = hash_of(|h| {
        h.word(m.refine_iters as u64);
        h.word(m.backward_error.to_bits());
        h.word(u64::from(m.converged));
    });
    let rhs = random_matrix(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x5eed), n, RHS_COLS);
    let x = report
        .factors
        .solve(&rhs)
        .expect("LU and Cholesky factors solve");
    let solve = hash_of(|h| h.matrix(&x));
    vec![
        (format!("{name}.factors"), factors),
        (format!("{name}.refine"), refine),
        (format!("{name}.solve{RHS_COLS}"), solve),
    ]
}

const MIXED_BITS: &[(&str, u64)] = &[
    ("cholesky_n1024_b128.factors", 0xeab99d6f6ae08578),
    ("cholesky_n1024_b128.refine", 0xad999bb88d8b99a1),
    ("cholesky_n1024_b128.solve8", 0x78e18633ba5947c5),
    ("cholesky_n200_b64.factors", 0xc2ec8eebe8761802),
    ("cholesky_n200_b64.refine", 0x8e36794465b80cdb),
    ("cholesky_n200_b64.solve8", 0x3d9b57323e73279b),
    ("lu_n1024_b128.factors", 0xa472364046c04f90),
    ("lu_n1024_b128.refine", 0x6f619ed7e9565a46),
    ("lu_n1024_b128.solve8", 0x5a3fe5ad090d9ee0),
    ("lu_n200_b64.factors", 0xfd7bf5418f864515),
    ("lu_n200_b64.refine", 0x07fcef85bd761a41),
    ("lu_n200_b64.solve8", 0xe82ab1435dc8fc7d),
];

#[test]
fn mixed_path_bits_are_unchanged() {
    if simd_backend() == "scalar" {
        return; // constants are those of the FMA backends
    }
    let mut actual = Vec::new();
    for dec in [Decomposition::Cholesky, Decomposition::Lu] {
        for (n, b) in [(1024, 128), (200, 64)] {
            actual.extend(mixed_case(dec, n, b, 13));
        }
    }
    let mut bad: Vec<String> = MIXED_BITS
        .iter()
        .zip(&actual)
        .filter(|((en, ev), (an, av))| en != an || ev != av)
        .map(|((en, ev), (an, av))| format!("{en}: expected {ev:#018x}, got {an} = {av:#018x}"))
        .collect();
    if MIXED_BITS.len() != actual.len() {
        bad.push(format!(
            "{} cases recorded, {} computed",
            MIXED_BITS.len(),
            actual.len()
        ));
    }
    let table: Vec<String> = actual
        .iter()
        .map(|(n, v)| format!("(\"{n}\", {v:#018x}),"))
        .collect();
    assert!(
        bad.is_empty(),
        "mixed-path bits changed:\n{}\ncomputed table:\n{}",
        bad.join("\n"),
        table.join("\n")
    );
}

const INPUT_BITS: &[(&str, u64)] = &[
    ("cholesky_n96_s13", 0xea2e2d098a357a53),
    ("cholesky_n256_s13", 0x3f60c3395b338994),
    ("cholesky_n256_s29", 0x5f0b7fa213dcb910),
    ("lu_n96_s13", 0x43bf8f31f3c4a461),
    ("lu_n256_s13", 0xb15c04d375f072d0),
    ("lu_n256_s29", 0x20ec18a8c094e991),
    ("qr_n96_s13", 0x43bf8f31f3c4a461),
    ("qr_n256_s13", 0xb15c04d375f072d0),
    ("qr_n256_s29", 0x20ec18a8c094e991),
];

/// The inputs the numeric engine, the service and the benchmark factor. LU and QR
/// share the general input, so their hashes agree; only the SPD (Cholesky) input
/// involves a reduction, and only it is skipped on a `scalar` backend.
#[test]
fn generated_inputs_keep_their_bits() {
    let fma = simd_backend() != "scalar";
    let cases = Decomposition::ALL
        .into_iter()
        .flat_map(|dec| [(dec, 96, 13), (dec, 256, 13), (dec, 256, 29)]);
    let mut bad = Vec::new();
    for (&(name, want), (dec, n, seed)) in INPUT_BITS.iter().zip(cases) {
        assert_eq!(name, format!("{dec:?}_n{n}_s{seed}").to_lowercase());
        if dec == Decomposition::Cholesky && !fma {
            continue;
        }
        let cfg = RunConfig::small(dec, n, 32, Strategy::Original).with_seed(seed);
        let got = hash_of(|h| h.matrix(&generate_input(&cfg)));
        if got != want {
            bad.push(format!("{name}: expected {want:#018x}, got {got:#018x}"));
        }
    }
    assert!(bad.is_empty(), "input bits changed:\n{}", bad.join("\n"));
}
