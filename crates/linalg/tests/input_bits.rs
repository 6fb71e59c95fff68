//! Bit-identity gate for the input generators: hashes of `random_matrix` and
//! `random_spd_matrix` at fixed seeds, against
//! constants recorded while the generators were still an element-at-a-time
//! `Matrix::from_fn` over `Uniform::sample` and an SPD input was `gemm(B, No, B, Yes)
//! + n·I`.
//!
//! Every workload, test constant and fault schedule in the workspace is downstream of
//! these inputs, so a faster keystream or SPD construction must leave every hash here
//! unchanged. Each hash also covers the next draw after the matrix, so the generator
//! state a fill leaves behind is pinned as well.
//!
//! `random_matrix` involves no floating-point reduction, so its hashes hold on every
//! host. The SPD constants are those of the FMA backends (`avx2+fma`, `avx512f`), which
//! agree bit for bit; on a `scalar` backend that suite is skipped. The engine's own
//! `generate_input` (a seed mapping over these two) is pinned in `bsr-core`'s
//! `mixed_bits`.

use bsr_linalg::blas3::{gemm, simd_backend, Trans};
use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::Matrix;
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::ThreadCountGuard;

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

    /// Shape, then every element's bits.
    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for &v in m.data() {
            self.word(v.to_bits());
        }
    }
}

/// Hash of a generated matrix and of the generator's next draw after it.
fn hash_with_next(m: &Matrix, rng: &mut ChaCha8Rng) -> u64 {
    let mut h = Fnv::new();
    h.matrix(m);
    h.word(rng.next_u64());
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
        "input bits changed:\n{}\ncomputed table:\n{}",
        bad.join("\n"),
        table.join("\n")
    );
}

/// Square, single-column, single-row and odd shapes: fills that end on, just before
/// and just after a 64-byte keystream block, and ones spanning many wide steps.
const SHAPES: [(usize, usize); 10] = [
    (1, 1),
    (7, 7),
    (96, 96),
    (256, 256),
    (1024, 1),
    (333, 1),
    (1, 333),
    (33, 17),
    (5, 1000),
    (1000, 3),
];

const RANDOM_BITS: &[(&str, u64)] = &[
    ("random_1x1_s13", 0x4b627cb5c8e4f658),
    ("random_1x1_s29", 0xe5af704a840f76a6),
    ("random_7x7_s13", 0x2b4267f4554c14c8),
    ("random_7x7_s29", 0xb4bb5230ab1f3059),
    ("random_96x96_s13", 0x29f8d7f1ee93a44c),
    ("random_96x96_s29", 0x11bc15bd70f1cee9),
    ("random_256x256_s13", 0x6295095cbfda7890),
    ("random_256x256_s29", 0xf326f0968d1b3d96),
    ("random_1024x1_s13", 0x57fcbc633f69ea55),
    ("random_1024x1_s29", 0x37fa571224f9933c),
    ("random_333x1_s13", 0xb5010b9a22818e5e),
    ("random_333x1_s29", 0xf0f08ef9458c0e28),
    ("random_1x333_s13", 0x8c785d6e93ceaf4c),
    ("random_1x333_s29", 0xb87d0c2275bbe191),
    ("random_33x17_s13", 0x1badae63e3ecf72a),
    ("random_33x17_s29", 0x8be14aeb730f9d1d),
    ("random_5x1000_s13", 0x3449ecca72edc830),
    ("random_5x1000_s29", 0x3ed8ea4ebf473490),
    ("random_1000x3_s13", 0xb9ddde463d426348),
    ("random_1000x3_s29", 0x4f5900f6e6329746),
];

#[test]
fn random_matrices_keep_their_bits() {
    let actual: Vec<(String, u64)> = SHAPES
        .iter()
        .enumerate()
        .flat_map(|(case, &(rows, cols))| {
            [13u64, 29].map(|seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 1000 + case as u64);
                let m = random_matrix(&mut rng, rows, cols);
                (
                    format!("random_{rows}x{cols}_s{seed}"),
                    hash_with_next(&m, &mut rng),
                )
            })
        })
        .collect();
    check(RANDOM_BITS, &actual);
}

const SPD_BITS: &[(&str, u64)] = &[
    ("spd_1_s13", 0x51cb86e448e29aa9),
    ("spd_1_s29", 0x87d0a2061ad979b2),
    ("spd_7_s13", 0x9661c75e572c6f5f),
    ("spd_7_s29", 0xe6d35b9ca578d8c1),
    ("spd_96_s13", 0xd874c2dc7e981379),
    ("spd_96_s29", 0x731c42bc42c1688e),
    ("spd_256_s13", 0xe76e40ca829d5fb8),
    ("spd_256_s29", 0x5cc4a7af3f2707f6),
    ("spd_1024_s13", 0x1a677aa9337bc706),
    ("spd_1024_s29", 0xaae23d12dd1b51e1),
];

#[test]
fn spd_matrices_keep_their_bits() {
    if !fma_backend() {
        return;
    }
    let actual: Vec<(String, u64)> = [1usize, 7, 96, 256, 1024]
        .iter()
        .flat_map(|&n| {
            [13u64, 29].map(|seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed * 1000 + n as u64);
                let m = random_spd_matrix(&mut rng, n);
                (format!("spd_{n}_s{seed}"), hash_with_next(&m, &mut rng))
            })
        })
        .collect();
    check(SPD_BITS, &actual);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The SPD generator's SYRK-and-mirror construction is `B·Bᵀ + n·I` through the
    /// general GEMM, bit for bit, at one and four pool threads.
    #[test]
    fn spd_equals_gemm_b_bt(n in 1usize..300, seed in any::<u64>()) {
        let b = random_matrix(&mut ChaCha8Rng::seed_from_u64(seed), n, n);
        let mut reference = gemm(&b, Trans::No, &b, Trans::Yes);
        for i in 0..n {
            reference.add_assign(i, i, n as f64);
        }
        for threads in [1, 4] {
            let _guard = ThreadCountGuard::set(threads);
            let spd = random_spd_matrix(&mut ChaCha8Rng::seed_from_u64(seed), n);
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert!(
                bits(&spd) == bits(&reference),
                "n = {}, seed = {}, threads = {}: SYRK path differs from GEMM",
                n,
                seed,
                threads
            );
        }
    }
}
