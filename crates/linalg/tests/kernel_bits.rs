//! Bit-identity gate for the packed kernel core: hashes of GEMM/SYRK outputs, of the
//! three f64 DAG factorizations with their residuals, and of an f32 DAG LU, at fixed
//! seeds, against constants recorded before the last change to the micro-kernels.
//!
//! Every output element accumulates its own FMA chain in `k` order and is added into
//! `C` by one multiply and one add, whatever the register tile or the write-back path,
//! so a change to tile shapes, dispatch or write-back fusion must leave every hash
//! here unchanged. A constant changes only in a change that means to change bits (a
//! new summation order, a different `KC`) and says so.
//!
//! The constants are those of the FMA backends (`avx2+fma`, `avx512f`), which agree
//! bit for bit; the portable scalar kernel rounds `a·b + c` twice, so on such hosts the
//! suite is skipped.

use bsr_linalg::blas3::{gemm_into_block, simd_backend, syrk_lower_into_block, Trans};
use bsr_linalg::cholesky::cholesky_dag;
use bsr_linalg::dag::DagExecution;
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::lu::{lu_dag, lu_dag_with};
use bsr_linalg::matrix::{Block, Matrix};
use bsr_linalg::qr::qr_dag;
use bsr_linalg::verify::{cholesky_residual, lu_residual, qr_residual};
use bsr_linalg::Element;
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

fn fma_backend() -> bool {
    simd_backend() != "scalar"
}

/// Compare computed hashes against the recorded ones, reporting every mismatch (and
/// the full computed table, so a deliberate change can re-record in one run).
fn check(expected: &[(&str, u64)], actual: &[(String, u64)]) {
    let mut bad: Vec<String> = expected
        .iter()
        .zip(actual)
        .filter(|((en, ev), (an, av))| en != an || ev != av)
        .map(|((en, ev), (an, av))| format!("{en}: expected {ev:#018x}, got {an} = {av:#018x}"))
        .collect();
    if expected.len() != actual.len() {
        bad.push(format!(
            "{} cases recorded, {} computed",
            expected.len(),
            actual.len()
        ));
    }
    let table: Vec<String> = actual
        .iter()
        .map(|(n, v)| format!("(\"{n}\", {v:#018x}),"))
        .collect();
    assert!(
        bad.is_empty(),
        "kernel bits changed:\n{}\ncomputed table:\n{}",
        bad.join("\n"),
        table.join("\n")
    );
}

fn trans_name(t: Trans) -> &'static str {
    match t {
        Trans::No => "n",
        Trans::Yes => "t",
    }
}

/// `C = alpha · op(A) · op(B) + beta · C` on a `C` offset inside a larger matrix, plus a
/// SYRK into an offset block, for every shape below; hashes of the whole outputs.
fn gemm_cases<E: Element>() -> Vec<(String, u64)> {
    // (m, k, n, op(A), op(B), alpha, beta): ragged tails against every tile shape,
    // transposed operands, k across KC chunk boundaries, alpha both ±1 and not.
    let shapes = [
        (333, 77, 129, Trans::No, Trans::No, 1.0, 0.0),
        (333, 77, 129, Trans::Yes, Trans::No, -1.0, 1.0),
        (333, 77, 129, Trans::No, Trans::Yes, 0.37, 1.0),
        (45, 13, 300, Trans::Yes, Trans::Yes, 1.0, 0.0),
        (45, 13, 300, Trans::No, Trans::No, 0.37, -0.5),
        (200, 1100, 96, Trans::No, Trans::Yes, -1.0, 1.0),
        (64, 1, 64, Trans::No, Trans::No, -0.37, 1.0),
    ];
    let mut out = Vec::new();
    for (case, &(m, k, n, ta, tb, alpha, beta)) in shapes.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(1000 + case as u64);
        let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
        let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
        let a: Matrix<E> = random_matrix(&mut rng, ar, ac).convert();
        let b: Matrix<E> = random_matrix(&mut rng, br, bc).convert();
        let mut c: Matrix<E> = random_matrix(&mut rng, m + 5, n + 3).convert();
        gemm_into_block(alpha, &a, ta, &b, tb, beta, &mut c, Block::new(3, 2, m, n));
        let name = format!(
            "{}.gemm_{m}x{k}x{n}_{}{}",
            E::NAME,
            trans_name(ta),
            trans_name(tb)
        );
        out.push((name, hash_of(|h| h.matrix(&c))));
    }
    for (case, &(order, k)) in [(97, 61), (150, 300)].iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(2000 + case as u64);
        let a: Matrix<E> = random_matrix(&mut rng, order, k).convert();
        let mut c: Matrix<E> = random_matrix(&mut rng, order + 4, order + 4).convert();
        syrk_lower_into_block(-1.0, &a, 1.0, &mut c, Block::new(4, 4, order, order));
        out.push((
            format!("{}.syrk_{order}x{k}", E::NAME),
            hash_of(|h| h.matrix(&c)),
        ));
    }
    out
}

const GEMM_BITS: &[(&str, u64)] = &[
    ("f64.gemm_333x77x129_nn", 0x29fb107aaa77f9cd),
    ("f64.gemm_333x77x129_tn", 0xe96e7dd16ca3796b),
    ("f64.gemm_333x77x129_nt", 0x6bcaaeddbe918792),
    ("f64.gemm_45x13x300_tt", 0xcfde3613686e337b),
    ("f64.gemm_45x13x300_nn", 0x0b6ba2487148005a),
    ("f64.gemm_200x1100x96_nt", 0x56289679dc47e476),
    ("f64.gemm_64x1x64_nn", 0x3ab0a3e954cecf44),
    ("f64.syrk_97x61", 0x4ca64025e1181e6d),
    ("f64.syrk_150x300", 0x8a77d4a53dc3aa7e),
    ("f32.gemm_333x77x129_nn", 0xe2aec3b8a8b0e248),
    ("f32.gemm_333x77x129_tn", 0xaa750663451fa466),
    ("f32.gemm_333x77x129_nt", 0xc6f6937a41c188e7),
    ("f32.gemm_45x13x300_tt", 0x0e10ef7433add4e6),
    ("f32.gemm_45x13x300_nn", 0xdde4f06860f8a4b6),
    ("f32.gemm_200x1100x96_nt", 0x4a7461a08fa5d186),
    ("f32.gemm_64x1x64_nn", 0x284c36dc99d65831),
    ("f32.syrk_97x61", 0x19a6b02b6340e006),
    ("f32.syrk_150x300", 0x27245af2feed3867),
];

#[test]
fn gemm_and_syrk_outputs_keep_their_bits() {
    if !fma_backend() {
        return;
    }
    let mut actual = gemm_cases::<f64>();
    actual.extend(gemm_cases::<f32>());
    check(GEMM_BITS, &actual);
}

/// The three f64 DAG factorizations and their residuals at order `n`, block `b`.
fn factor_cases(n: usize, b: usize) -> Vec<(String, u64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(3000 + n as u64);
    let general = random_matrix(&mut rng, n, n);
    let spd = random_spd_matrix(&mut rng, n);

    let lu = lu_dag(&general, b).expect("random matrix is nonsingular");
    let lu_res = lu_residual(&general, &lu);
    let lu_hash = hash_of(|h| {
        h.matrix(&lu.lu);
        lu.pivots.iter().for_each(|&p| h.word(p as u64));
        h.word(lu_res.to_bits());
    });

    let mut l = spd.clone();
    cholesky_dag(&mut l, b).expect("random SPD matrix factors");
    let chol_res = cholesky_residual(&spd, &l);
    let chol_hash = hash_of(|h| {
        h.matrix(&l);
        h.word(chol_res.to_bits());
    });

    let qr = qr_dag(&general, b);
    let qr_res = qr_residual(&general, &qr);
    let qr_hash = hash_of(|h| {
        h.matrix(&qr.qr);
        qr.taus.iter().for_each(|t| h.word(t.to_bits()));
        h.word(qr_res.to_bits());
    });
    vec![
        (format!("lu_dag_{n}_{b}"), lu_hash),
        (format!("cholesky_dag_{n}_{b}"), chol_hash),
        (format!("qr_dag_{n}_{b}"), qr_hash),
    ]
}

const FACTOR_BITS: &[(&str, u64)] = &[
    ("lu_dag_200_128", 0x828c0aed929b7356),
    ("cholesky_dag_200_128", 0xd5270249297c6b50),
    ("qr_dag_200_128", 0xf63bbfa8b0083404),
    ("lu_dag_1024_128", 0xe22785fef5ea7a68),
    ("cholesky_dag_1024_128", 0xa3891098120c0e5b),
    ("qr_dag_1024_128", 0x8e9d3afcdd6ed1d2),
];

#[test]
fn dag_factors_and_residuals_keep_their_bits() {
    if !fma_backend() {
        return;
    }
    let mut actual = factor_cases(200, 128);
    actual.extend(factor_cases(1024, 128));
    check(FACTOR_BITS, &actual);
}

const F32_LU_BITS: &[(&str, u64)] = &[("f32.lu_dag_515_128", 0xb3a345049f0de147)];

#[test]
fn f32_dag_lu_keeps_its_bits() {
    if !fma_backend() {
        return;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(4000);
    let a: Matrix<f32> = random_matrix(&mut rng, 515, 515).convert();
    let (f, _) =
        lu_dag_with(&a, 128, &(), DagExecution::Pool).expect("random matrix is nonsingular");
    let hash = hash_of(|h| {
        h.matrix(&f.lu);
        f.pivots.iter().for_each(|&p| h.word(p as u64));
    });
    check(F32_LU_BITS, &[("f32.lu_dag_515_128".to_string(), hash)]);
}
