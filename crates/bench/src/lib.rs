//! # bsr-bench
//!
//! Shared helpers for the benchmark harnesses that regenerate every table and figure of
//! the paper's evaluation section. Each harness is a `harness = false` bench target, so
//! `cargo bench -p bsr-bench` prints the same rows/series the paper reports:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig02_slack_profile` | Figure 2 — slack per iteration, Cholesky/LU/QR, fp64 + fp32 |
//! | `fig05_guardband_profiling` | Figure 5 + Table 3 — guardband profiling sweeps |
//! | `tab01_fault_coverage` | Table 1 — ABFT fault coverage estimates |
//! | `tab02_complexity_ratios` | Table 2 — iteration-to-iteration complexity ratios |
//! | `fig08_prediction_error` | Figure 8 — slack prediction error |
//! | `fig09_abft_overhead` | Figure 9 — ABFT overhead and correctness |
//! | `fig10_iteration_breakdown` | Figure 10 — per-iteration time/energy breakdown |
//! | `fig11_pareto` | Figure 11 — performance/energy Pareto trade-off |
//! | `fig12_overall_saving` | Figure 12 — overall energy saving and ED2P reduction |
//! | `fig13_size_sweep` | Figure 13 — LU energy saving across matrix sizes |
//! | `abl_dvfs_latency` | ablation — sensitivity to the DVFS transition latency |
//! | `abl_block_size` | ablation — sensitivity to the panel/block size |
//!
//! Performance of the numeric stack is measured by the standalone repo benchmark
//! (`benchmark/`), not here.

#![deny(missing_docs)]

use bsr_core::config::RunConfig;
use bsr_core::report::RunReport;
use bsr_sched::strategy::{BsrConfig, Strategy};
use bsr_sched::workload::Decomposition;

/// The strategies compared throughout the evaluation, in the paper's order.
pub fn evaluated_strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("Original", Strategy::Original),
        ("R2H", Strategy::RaceToHalt),
        ("SR", Strategy::SlackReclamation),
        ("BSR", Strategy::Bsr(BsrConfig::max_energy_saving())),
    ]
}

/// Run the paper-default configuration (n = 30720, b = 512, fp64) of `dec` under every
/// evaluated strategy. Fault sampling is disabled so the timing/energy numbers are
/// deterministic.
pub fn run_all_strategies(dec: Decomposition) -> Vec<(&'static str, RunReport)> {
    evaluated_strategies()
        .into_iter()
        .map(|(name, strategy)| {
            let cfg = RunConfig::paper_default(dec, strategy).with_fault_injection(false);
            (name, bsr_core::analytic::run(cfg))
        })
        .collect()
}

/// Print a section header so the combined `cargo bench` output stays navigable.
pub fn header(title: &str) {
    println!();
    println!("================================================================================");
    println!("{title}");
    println!("================================================================================");
}

/// Format a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_strategies_are_evaluated() {
        let s = evaluated_strategies();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].0, "Original");
        assert_eq!(s[3].0, "BSR");
    }

    #[test]
    fn pct_formats_sign_and_scale() {
        assert_eq!(pct(0.117), "+11.7%");
        assert_eq!(pct(-0.05), "-5.0%");
    }
}
