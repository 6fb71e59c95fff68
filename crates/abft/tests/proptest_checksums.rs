//! Property-based tests of the checksum invariants.

use bsr_abft::checksum::{
    encode_block, update_block_checksums_gemm, verify_and_correct, ChecksumScheme,
    VerifyEventKind,
};
use bsr_abft::coverage::{fc_full, fc_k, fc_single, num_protected_blocks};
use bsr_abft::inject::{corrupt_checksums, inject_fault};
use rand::Rng;
use bsr_linalg::blas3::{gemm_into_block, Trans};
use bsr_linalg::generate::random_matrix;
use bsr_linalg::matrix::Block;
use hetero_sim::freq::MHz;
use hetero_sim::guardband::Guardband;
use hetero_sim::sdc::{ErrorPattern, SdcModel};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_0d_error_is_always_corrected(
        n in 4usize..24,
        seed in any::<u64>(),
        scheme_full in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = random_matrix(&mut rng, n, n);
        let original = m.clone();
        let scheme = if scheme_full { ChecksumScheme::Full } else { ChecksumScheme::SingleSide };
        let cs = encode_block(&m, Block::full(n, n), scheme);
        inject_fault(&mut m, Block::full(n, n), ErrorPattern::ZeroD, &mut rng);
        let out = verify_and_correct(&mut m, &cs);
        prop_assert_eq!(out.corrected_0d, 1);
        prop_assert_eq!(out.uncorrectable, 0);
        prop_assert!(m.approx_eq(&original, 1e-6 * (1.0 + original.max_abs())));
    }

    #[test]
    fn full_checksum_corrects_1d_errors(n in 6usize..24, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = random_matrix(&mut rng, n, n);
        let original = m.clone();
        let cs = encode_block(&m, Block::full(n, n), ChecksumScheme::Full);
        inject_fault(&mut m, Block::full(n, n), ErrorPattern::OneD, &mut rng);
        let out = verify_and_correct(&mut m, &cs);
        prop_assert_eq!(out.uncorrectable, 0);
        prop_assert!(out.total_corrected() >= 1);
        prop_assert!(m.approx_eq(&original, 1e-6 * (1.0 + original.max_abs())));
    }

    #[test]
    fn checksums_commute_with_gemm_update(
        n in 4usize..20,
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = random_matrix(&mut rng, n, n);
        let l = random_matrix(&mut rng, n, k);
        let u = random_matrix(&mut rng, k, n);
        let block = Block::full(n, n);
        let mut cs = encode_block(&m, block, ChecksumScheme::Full);
        gemm_into_block(-1.0, &l, Trans::No, &u, Trans::No, 1.0, &mut m, block);
        update_block_checksums_gemm(&mut cs, &l, &u);
        // Updated checksums must verify the numerically updated matrix as clean.
        let out = verify_and_correct(&mut m, &cs);
        prop_assert_eq!(out.total_corrected() + out.uncorrectable, 0);
    }

    #[test]
    fn coverage_is_a_probability_and_full_dominates_single(
        freq in 1850.0f64..2300.0,
        seconds in 0.001f64..5.0,
        n_over_b in 10usize..80,
    ) {
        let sdc = SdcModel::paper_gpu();
        let s = n_over_b * n_over_b;
        let single = fc_single(&sdc, MHz(freq), Guardband::Optimized, seconds, s);
        let full = fc_full(&sdc, MHz(freq), Guardband::Optimized, seconds, s);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&single));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&full));
        prop_assert!(full >= single - 1e-9);
    }

    #[test]
    fn coverage_decreases_with_longer_exposure(
        freq in 1950.0f64..2250.0,
        t in 0.01f64..1.0,
    ) {
        let sdc = SdcModel::paper_gpu();
        let s = num_protected_blocks(30720, 512);
        let short = fc_full(&sdc, MHz(freq), Guardband::Optimized, t, s);
        let long = fc_full(&sdc, MHz(freq), Guardband::Optimized, 4.0 * t, s);
        prop_assert!(long <= short + 1e-12);
    }

    /// An order-`t` code absorbs any scatter of up to `t` strikes per column, in any
    /// number of columns at once — far beyond the legacy one-strike-per-block limit.
    #[test]
    fn multi_corrects_up_to_t_strikes_per_column(
        n in 8usize..24,
        t in 2usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = random_matrix(&mut rng, n, n);
        let original = m.clone();
        let cs = encode_block(&m, Block::full(n, n), ChecksumScheme::Multi(t as u8));
        let struck_cols = rng.gen_range(1..=n.min(4));
        for j in 0..struck_cols {
            let hits = rng.gen_range(1..=t);
            let mut rows: Vec<usize> = (0..n).collect();
            for h in 0..hits {
                let pick = rng.gen_range(h..n);
                rows.swap(h, pick);
                let i = rows[h];
                let v = m.get(i, j);
                m.set(i, j, v * rng.gen_range(2.0..8.0) + rng.gen_range(1.0..50.0));
            }
        }
        let out = verify_and_correct(&mut m, &cs);
        prop_assert_eq!(out.uncorrectable, 0, "events: {:?}", out.events);
        prop_assert!(out.corrected_0d + out.corrected_k >= 1);
        prop_assert!(m.approx_eq(&original, 1e-6 * (1.0 + original.max_abs())));
    }

    /// Strikes landing in the stored check vectors themselves must never touch the
    /// data, under any scheme: the guard hash no longer matches, the tile is
    /// reported uncorrectable, and the matrix stays bit-identical.
    #[test]
    fn check_vector_strikes_leave_data_bit_identical(
        n in 6usize..24,
        scheme_idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let scheme = [
            ChecksumScheme::None,
            ChecksumScheme::SingleSide,
            ChecksumScheme::Full,
            ChecksumScheme::Multi(1),
            ChecksumScheme::Multi(2),
            ChecksumScheme::Multi(3),
        ][scheme_idx];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = random_matrix(&mut rng, n, n);
        let original = m.clone();
        let mut cs = encode_block(&m, Block::full(n, n), scheme);
        let struck = corrupt_checksums(&mut cs, &mut rng);
        prop_assert_eq!(struck, scheme.column_vectors() + scheme.row_vectors(),
            "one strike per check vector");
        let out = verify_and_correct(&mut m, &cs);
        prop_assert_eq!(out.total_corrected(), 0,
            "check strikes must not masquerade as data errors: {:?}", out.events);
        if struck > 0 {
            prop_assert_eq!(out.uncorrectable, 1, "events: {:?}", out.events);
            prop_assert_eq!(out.events[0].kind, VerifyEventKind::ChecksumGuard);
        }
        prop_assert!(m == original, "data must be bit-identical");
    }

    #[test]
    fn multi_checksums_commute_with_gemm_update(
        n in 4usize..20,
        k in 1usize..6,
        t in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = random_matrix(&mut rng, n, n);
        let l = random_matrix(&mut rng, n, k);
        let u = random_matrix(&mut rng, k, n);
        let block = Block::full(n, n);
        let mut cs = encode_block(&m, block, ChecksumScheme::Multi(t as u8));
        gemm_into_block(-1.0, &l, Trans::No, &u, Trans::No, 1.0, &mut m, block);
        update_block_checksums_gemm(&mut cs, &l, &u);
        let out = verify_and_correct(&mut m, &cs);
        prop_assert_eq!(out.total_corrected() + out.uncorrectable, 0, "events: {:?}", out.events);
    }

    /// `fc_k` is a probability, `fc_k(1)` coincides with the legacy full-scheme
    /// model, and every added check-vector pair only increases coverage.
    #[test]
    fn fc_k_is_a_probability_that_grows_with_code_order(
        freq in 1850.0f64..2300.0,
        seconds in 0.001f64..5.0,
        n_over_b in 10usize..80,
    ) {
        let sdc = SdcModel::paper_gpu();
        let s = n_over_b * n_over_b;
        let full = fc_full(&sdc, MHz(freq), Guardband::Optimized, seconds, s);
        let mut prev = 0.0;
        for t in 1usize..=4 {
            let ck = fc_k(&sdc, MHz(freq), Guardband::Optimized, seconds, s, t);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ck));
            prop_assert!(ck >= prev - 1e-12, "coverage must grow with order");
            prop_assert!(ck >= full - 1e-9, "fc_k must dominate fc_full at t={t}");
            if t == 1 {
                prop_assert!((ck - full).abs() <= 1e-6, "fc_k(1)={ck} vs fc_full={full}");
            }
            prev = ck;
        }
    }

    #[test]
    fn fc_k_decreases_with_longer_exposure(
        freq in 1950.0f64..2250.0,
        t in 0.01f64..1.0,
        order in 1usize..4,
    ) {
        let sdc = SdcModel::paper_gpu();
        let s = num_protected_blocks(30720, 512);
        let short = fc_k(&sdc, MHz(freq), Guardband::Optimized, t, s, order);
        let long = fc_k(&sdc, MHz(freq), Guardband::Optimized, 4.0 * t, s, order);
        prop_assert!(long <= short + 1e-12);
    }

    /// Finer blocking spreads a fixed error stream over more independent codewords:
    /// all three coverage models must be non-decreasing in the block count.
    #[test]
    fn coverage_grows_with_block_count(
        freq in 1900.0f64..2250.0,
        seconds in 0.01f64..2.0,
        s0 in 16usize..512,
        order in 1usize..4,
    ) {
        let sdc = SdcModel::paper_gpu();
        let gb = Guardband::Optimized;
        let s1 = s0 * 4;
        prop_assert!(
            fc_single(&sdc, MHz(freq), gb, seconds, s1)
                >= fc_single(&sdc, MHz(freq), gb, seconds, s0) - 1e-12
        );
        prop_assert!(
            fc_full(&sdc, MHz(freq), gb, seconds, s1)
                >= fc_full(&sdc, MHz(freq), gb, seconds, s0) - 1e-12
        );
        prop_assert!(
            fc_k(&sdc, MHz(freq), gb, seconds, s1, order)
                >= fc_k(&sdc, MHz(freq), gb, seconds, s0, order) - 1e-12
        );
    }
}
