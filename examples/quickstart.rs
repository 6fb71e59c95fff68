//! Quickstart: factorize a real matrix with the energy-aware framework and print the
//! simulated energy/performance report.
//!
//! Run with: `cargo run --release --example quickstart`

use bsr_repro::prelude::*;

fn main() {
    // A small double-precision LU factorization in numeric mode: real kernels, simulated
    // platform timing/energy, ABFT protection managed adaptively by BSR.
    let cfg = RunConfig::small(Decomposition::Lu, 512, 64, Strategy::Bsr(BsrConfig::with_ratio(0.25)));
    let numeric = run_numeric(cfg.clone()).expect("factorization failed");
    println!("numeric-mode LU, n = 512, block = 64, BSR r = 0.25");
    println!("  residual              : {:.3e}", numeric.residual);
    println!("  numerically correct   : {}", numeric.numerically_correct);
    println!("  faults injected       : {}", numeric.faults_injected);
    println!(
        "  corrected (0D / k)    : {} / {}",
        numeric.verification.corrected_0d, numeric.verification.corrected_k
    );

    // The same configuration at paper scale, analytic mode, against the Original design.
    let paper = RunConfig::paper_default(Decomposition::Lu, Strategy::Bsr(BsrConfig::default()));
    let bsr = run(paper.clone().with_fault_injection(false));
    let original = run(paper.with_strategy(Strategy::Original).with_fault_injection(false));
    let cmp = compare(&bsr, &original);
    println!("\nanalytic mode, n = 30720 (paper scale), BSR r = 0 vs Original:");
    println!("  energy   : {:.0} J vs {:.0} J ({:.1}% saving)",
        bsr.total_energy_j(), original.total_energy_j(), cmp.energy_saving * 100.0);
    println!("  time     : {:.1} s vs {:.1} s", bsr.total_time_s, original.total_time_s);
    println!("  ED2P red.: {:.1}%", cmp.ed2p_reduction * 100.0);
}
