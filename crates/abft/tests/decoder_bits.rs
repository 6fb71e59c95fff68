//! Recorded values of the checksum decoder under `SingleSide` and `Full`.
//!
//! Each cell encodes fixed-seed random `b × b` tiles, strikes them with one
//! `inject_fault_slices` fault (0D or 1D, drawn from the tile's own RNG stream right
//! after the matrix), verifies and corrects, and records:
//!
//! * an FNV-1a hash over every element of every corrected tile (so a correction that
//!   moves by one ulp moves the hash);
//! * how many tiles were accepted (`uncorrectable == 0`);
//! * the summed `total_corrected()` and `uncorrectable` tallies.
//!
//! The decoder's arithmetic is scalar f64 in a fixed order (no SIMD dispatch, no
//! fused multiply-add), so these values hold on every host. A change to the decoder
//! that moves one of them says which and why in `CHANGES.md`; a failure prints the
//! full computed table.

use bsr_abft::checksum::{encode_block, verify_and_correct, ChecksumScheme, VerifyEventKind};
use bsr_abft::inject::{corrupt_checksums, inject_fault_slices};
use bsr_linalg::generate::random_matrix;
use bsr_linalg::matrix::{Block, Matrix};
use hetero_sim::sdc::ErrorPattern;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One cell's record: tile hash, accepted tiles, corrections, uncorrectable tallies.
type Record = (u64, usize, usize, usize);

fn cell(scheme: ChecksumScheme, b: usize, pattern: ErrorPattern, seeds: Range<u64>) -> Record {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut accepted, mut corrected, mut uncorrectable) = (0, 0, 0);
    for seed in seeds {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m: Matrix = random_matrix(&mut rng, b, b);
        let block = Block::full(b, b);
        let cs = encode_block(&m, block, scheme);
        {
            let mut cols: Vec<&mut [f64]> = m.cols_range_mut(block).map(|(_, s)| s).collect();
            inject_fault_slices(&mut cols, 0, 0, pattern, &mut rng);
        }
        let out = verify_and_correct(&mut m, &cs);
        for &v in m.data() {
            h.word(v.to_bits());
        }
        accepted += usize::from(out.uncorrectable == 0);
        corrected += out.total_corrected();
        uncorrectable += out.uncorrectable;
    }
    (h.0, accepted, corrected, uncorrectable)
}

/// Seeds per tile size: small tiles are cheap enough for a wide sweep. The 128² range
/// holds seeds 1052 and 1135, whose partial-column strikes the order-1 column pass
/// first locates as a single element (the row pass then repairs them), and 1332 and
/// 1493, whose column strikes a single-side ratio test once accepted as 0D fixes.
fn seeds(b: usize) -> Range<u64> {
    if b == 16 {
        0..3000
    } else {
        1000..1500
    }
}

#[test]
fn single_side_and_full_corrections_keep_their_values() {
    #[rustfmt::skip]
    let expected: [(&str, Record); 8] = [
        ("SingleSide b=16 ZeroD", (0xfd00eef70faf147d, 3000, 3000, 0)),
        ("SingleSide b=16 OneD", (0x2334d09cd16f475d, 1470, 13410, 1530)),
        ("SingleSide b=128 ZeroD", (0x9e9815a7a9656d29, 500, 500, 0)),
        ("SingleSide b=128 OneD", (0xd78b8b2afe0abdce, 256, 17069, 244)),
        ("Full b=16 ZeroD", (0xfd00eef70faf147d, 3000, 3000, 0)),
        ("Full b=16 OneD", (0x029e69018c3c402a, 3000, 27151, 0)),
        ("Full b=128 ZeroD", (0x9e9815a7a9656d29, 500, 500, 0)),
        ("Full b=128 OneD", (0x527f9031354a3c7b, 500, 33110, 0)),
    ];
    let mut actual = Vec::new();
    for scheme in [ChecksumScheme::SingleSide, ChecksumScheme::Full] {
        for b in [16, 128] {
            for pattern in [ErrorPattern::ZeroD, ErrorPattern::OneD] {
                let name = format!("{scheme:?} b={b} {pattern:?}");
                actual.push((name, cell(scheme, b, pattern, seeds(b))));
            }
        }
    }
    let table: Vec<String> = actual
        .iter()
        .map(|(n, (h, a, c, u))| format!("(\"{n}\", ({h:#018x}, {a}, {c}, {u})),"))
        .collect();
    let bad: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|((en, ev), (an, av))| en != an || ev != av)
        .map(|((en, ev), (_, av))| format!("{en}: expected {ev:x?}, got {av:x?}"))
        .collect();
    assert!(
        bad.is_empty(),
        "decoder values moved:\n{}\ncomputed table:\n{}",
        bad.join("\n"),
        table.join("\n")
    );
}

/// Check-vector strikes that a decoder without the guard took for data errors: on
/// these 128² tiles, `Multi(1)` (the first four seeds) and `Multi(2)` (the last two)
/// once changed clean data by up to 0.54 and reported the tile corrected. Every scheme
/// must leave the data bit-identical and report the tile uncorrectable.
#[test]
fn recorded_check_strike_miscorrections_stay_uncorrectable() {
    for seed in [8202u64, 18035, 18250, 19783, 12838, 19374] {
        for scheme in [
            ChecksumScheme::SingleSide,
            ChecksumScheme::Full,
            ChecksumScheme::Multi(1),
            ChecksumScheme::Multi(2),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut m = random_matrix(&mut rng, 128, 128);
            let original = m.clone();
            let mut cs = encode_block(&m, Block::full(128, 128), scheme);
            corrupt_checksums(&mut cs, &mut rng);
            let out = verify_and_correct(&mut m, &cs);
            assert!(m == original, "seed {seed} {scheme:?}: clean data changed");
            assert_eq!(out.uncorrectable, 1, "seed {seed} {scheme:?}: {:?}", out.events);
            assert_eq!(out.events[0].kind, VerifyEventKind::ChecksumGuard);
        }
    }
}
