//! Ad-hoc timing probe (ignored by default): `cargo test --release -p bsr-linalg
//! --test probe_timing -- --ignored --nocapture` prints forkjoin vs stepped times per
//! thread count for the developer tuning the task layer (the stepped drivers run one
//! task graph per iteration).

use bsr_linalg::generate::{random_matrix, random_spd_matrix};
use bsr_linalg::{cholesky, lu, qr};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

#[test]
#[ignore = "manual timing probe"]
fn probe() {
    let n = 1024;
    let b = 128;
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let a = random_matrix(&mut rng, n, n);
    let spd = random_spd_matrix(&mut rng, n);
    for t in [1usize, 2, 4] {
        let _guard = rayon::ThreadCountGuard::set(t);
        for _ in 0..2 {
            let t0 = Instant::now();
            let _ = lu::lu_blocked(&a, b).unwrap();
            let sync_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let mut s = lu::LuTiledStepper::new(&a, b).unwrap();
            for k in 0..s.iterations() {
                s.step(k, &()).unwrap();
            }
            let stepped_s = t0.elapsed().as_secs_f64();
            println!("t={t} lu   sync {sync_s:.4} stepped {stepped_s:.4} ratio {:.3}", sync_s / stepped_s);
        }
        for _ in 0..2 {
            let mut w = spd.clone();
            let t0 = Instant::now();
            cholesky::cholesky_blocked(&mut w, b).unwrap();
            let sync_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let mut s = cholesky::CholeskyTiledStepper::new(spd.clone(), b).unwrap();
            for k in 0..s.iterations() {
                s.step(k, &()).unwrap();
            }
            let stepped_s = t0.elapsed().as_secs_f64();
            println!("t={t} chol sync {sync_s:.4} stepped {stepped_s:.4} ratio {:.3}", sync_s / stepped_s);
        }
        for _ in 0..2 {
            let t0 = Instant::now();
            let _ = qr::qr_blocked(&a, b);
            let sync_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let mut s = qr::QrTiledStepper::new(&a, b);
            for k in 0..s.iterations() {
                s.step(k, &());
            }
            let stepped_s = t0.elapsed().as_secs_f64();
            println!("t={t} qr   sync {sync_s:.4} stepped {stepped_s:.4} ratio {:.3}", sync_s / stepped_s);
        }
    }
}
